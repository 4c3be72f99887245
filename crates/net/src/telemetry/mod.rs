//! Bounded-memory telemetry over the [`Recorder`] event stream.
//!
//! The recorder layer in [`record`](crate::record) makes every
//! simulator action visible; this module makes a
//! *multi-million-message* run measurable without the memory growing
//! with traffic:
//!
//! * [`LogHistogram`] — `O(1)`-record log-bucketed histogram with
//!   ≤ 0.8% quantile error (vs the exact but unbounded
//!   [`Histogram`](crate::stats::Histogram));
//! * [`Telemetry`] — a recorder aggregating
//!   log-bucketed distributions plus per-link and per-node
//!   accumulators ([`LinkStat`], [`NodeStat`]): utilization,
//!   queue-depth high-water marks, forwarded/dropped counts — the
//!   per-link view the paper's wildcard-balancing remark calls for;
//! * [`SnapshotRecorder`] — wraps [`Telemetry`] and prints an
//!   in-flight summary every N simulated ticks
//!   (`dbr simulate --progress N`);
//! * [`ChromeTraceRecorder`] — exports the event stream in Chrome
//!   trace-event JSON (Perfetto/`chrome://tracing` compatible), one
//!   track per node (`dbr simulate --chrome-trace`, `dbr trace
//!   export`).
//!
//! All state is bounded by the *network* (links, nodes, in-flight
//! messages), never by the number of events recorded. See
//! `docs/OBSERVABILITY.md` for the CLI surface and
//! `docs/adr/0002-exact-vs-log-bucketed-histograms.md` for the
//! histogram trade-off.

mod chrome;
mod links;
mod loghist;
mod snapshot;

pub use chrome::ChromeTraceRecorder;
pub use links::{LinkStat, NodeStat};
pub use loghist::LogHistogram;
pub use snapshot::SnapshotRecorder;

use std::collections::{BTreeMap, HashMap};
use std::fmt;

use crate::record::{NetEvent, Recorder};

/// Bounded-memory aggregation of one event stream: log-bucketed
/// distributions, counters, and per-link/per-node accumulators.
///
/// Memory is `O(links + nodes + in-flight messages)`, independent of
/// how many events are recorded; every [`Telemetry::record`] is
/// `O(1)` (amortized — map entries are created once per link/node).
///
/// # Examples
///
/// ```
/// use debruijn_core::DeBruijn;
/// use debruijn_net::telemetry::Telemetry;
/// use debruijn_net::{workload, ShardedSimulation, SimConfig};
///
/// let space = DeBruijn::new(2, 5)?;
/// let sim = ShardedSimulation::new(space, SimConfig::default(), 1)?;
/// let traffic = workload::uniform_random(space, 500, 3);
/// let mut t = Telemetry::new();
/// let report = sim.run_recorded(&traffic, &mut t);
/// assert_eq!(t.delivered, report.delivered as u64);
/// assert_eq!(t.hops.count(), 500);
/// assert_eq!(t.in_flight(), 0);
/// // Per-link loads sum to the total hop count.
/// let forwards: u64 = t.links.values().map(|l| l.forwarded).sum();
/// assert_eq!(forwards, report.total_hops);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Messages that entered the network.
    pub injected: u64,
    /// Messages accepted at their destination.
    pub delivered: u64,
    /// Messages lost, by [`DropReason::name`](crate::DropReason::name).
    pub drops_by_reason: BTreeMap<&'static str, u64>,
    /// Fault-avoiding route computations.
    pub reroutes: u64,
    /// Wildcard resolutions by substituted digit.
    pub wildcard_by_digit: BTreeMap<u8, u64>,
    /// Hops per delivered message.
    pub hops: LogHistogram,
    /// `hops − D(X,Y)` per delivered message.
    pub stretch: LogHistogram,
    /// End-to-end delivery latency in ticks.
    pub latency: LogHistogram,
    /// Per-hop latency (handover to arrival).
    pub per_hop_latency: LogHistogram,
    /// Ticks each forward waited for a busy link.
    pub queue_wait: LogHistogram,
    /// Messages queued ahead at each handover.
    pub queue_depth: LogHistogram,
    /// Per-directed-link accumulators, keyed by `(from, to)` word
    /// ranks.
    pub links: BTreeMap<(u128, u128), LinkStat>,
    /// Per-node accumulators, keyed by word rank.
    pub nodes: BTreeMap<u128, NodeStat>,
    /// Largest event time seen (the makespan so far).
    pub last_time: u64,
    /// Display forms of every rank seen (for rendering tables).
    names: BTreeMap<u128, String>,
    /// Current node of each live message (for attributing terminal
    /// events to nodes). Entries are removed on deliver/drop.
    locations: HashMap<usize, u128>,
}

impl Telemetry {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total messages lost.
    pub fn dropped(&self) -> u64 {
        self.drops_by_reason.values().sum()
    }

    /// Messages injected but not yet delivered or dropped.
    pub fn in_flight(&self) -> u64 {
        self.injected
            .saturating_sub(self.delivered)
            .saturating_sub(self.dropped())
    }

    /// Total wildcard resolutions.
    pub fn wildcards_resolved(&self) -> u64 {
        self.wildcard_by_digit.values().sum()
    }

    /// Display form of a recorded rank (`?` if never seen).
    pub fn name_of(&self, rank: u128) -> &str {
        self.names.get(&rank).map_or("?", String::as_str)
    }

    /// Links sorted by descending forwarded count, heaviest first.
    pub fn hottest_links(&self) -> Vec<((u128, u128), LinkStat)> {
        let mut v: Vec<_> = self.links.iter().map(|(&k, &s)| (k, s)).collect();
        v.sort_by(|a, b| b.1.forwarded.cmp(&a.1.forwarded).then(a.0.cmp(&b.0)));
        v
    }

    /// Max/mean ratio of per-link forwarded counts over *used* links —
    /// 1.0 is perfectly balanced. Returns `None` before any forward.
    pub fn link_imbalance(&self) -> Option<f64> {
        if self.links.is_empty() {
            return None;
        }
        let max = self.links.values().map(|l| l.forwarded).max()? as f64;
        let total: u64 = self.links.values().map(|l| l.forwarded).sum();
        let mean = total as f64 / self.links.len() as f64;
        Some(max / mean)
    }

    fn remember(&mut self, rank: u128, word: &debruijn_core::Word) {
        self.names.entry(rank).or_insert_with(|| word.to_string());
    }

    fn touch(&mut self, time: u64) {
        self.last_time = self.last_time.max(time);
    }
}

impl Recorder for Telemetry {
    fn record(&mut self, event: &NetEvent) {
        match event {
            NetEvent::Inject {
                message,
                source,
                destination,
                ..
            } => {
                self.injected += 1;
                let src = source.rank();
                self.remember(src, source);
                self.remember(destination.rank(), destination);
                self.nodes.entry(src).or_default().injected += 1;
                self.locations.insert(*message, src);
                // Injections are recorded up front, before the event
                // loop runs; they do not advance the clock.
            }
            NetEvent::WildcardResolved {
                time, at, digit, ..
            } => {
                let rank = at.rank();
                self.remember(rank, at);
                self.nodes.entry(rank).or_default().wildcards += 1;
                *self.wildcard_by_digit.entry(*digit).or_insert(0) += 1;
                self.touch(*time);
            }
            NetEvent::Forward {
                time,
                message,
                from,
                to,
                departs,
                arrives,
                queue_wait,
                queue_depth,
                ..
            } => {
                self.per_hop_latency.record(arrives.saturating_sub(*time));
                self.queue_wait.record(*queue_wait);
                self.queue_depth.record(*queue_depth as u64);
                let (f, t) = (from.rank(), to.rank());
                self.remember(f, from);
                self.remember(t, to);
                self.links.entry((f, t)).or_default().record_forward(
                    *departs,
                    *arrives,
                    *queue_wait,
                    *queue_depth,
                );
                self.nodes.entry(f).or_default().forwarded += 1;
                self.locations.insert(*message, t);
                self.touch(*arrives);
            }
            NetEvent::Reroute { time, .. } => {
                self.reroutes += 1;
                self.touch(*time);
            }
            NetEvent::Deliver {
                time,
                message,
                hops,
                latency,
                shortest,
            } => {
                self.delivered += 1;
                self.hops.record(*hops as u64);
                self.stretch.record(hops.saturating_sub(*shortest) as u64);
                self.latency.record(*latency);
                if let Some(rank) = self.locations.remove(message) {
                    self.nodes.entry(rank).or_default().delivered += 1;
                }
                self.touch(*time);
            }
            NetEvent::Drop {
                time,
                message,
                reason,
                ..
            } => {
                *self.drops_by_reason.entry(reason.name()).or_insert(0) += 1;
                if let Some(rank) = self.locations.remove(message) {
                    self.nodes.entry(rank).or_default().dropped += 1;
                }
                self.touch(*time);
            }
        }
    }
}

impl fmt::Display for Telemetry {
    /// Renders the bounded-memory summary: counters, distribution
    /// one-liners, and the five hottest links.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "messages: {} injected, {} delivered, {} dropped, {} in flight",
            self.injected,
            self.delivered,
            self.dropped(),
            self.in_flight()
        )?;
        for (reason, n) in &self.drops_by_reason {
            writeln!(f, "  dropped ({reason}): {n}")?;
        }
        if self.reroutes > 0 {
            writeln!(f, "fault-avoiding reroutes: {}", self.reroutes)?;
        }
        writeln!(f, "hops:          {}", self.hops.summary())?;
        writeln!(f, "stretch:       {}", self.stretch.summary())?;
        writeln!(f, "latency:       {}", self.latency.summary())?;
        writeln!(f, "per-hop:       {}", self.per_hop_latency.summary())?;
        writeln!(f, "queue wait:    {}", self.queue_wait.summary())?;
        writeln!(f, "queue depth:   {}", self.queue_depth.summary())?;
        if !self.wildcard_by_digit.is_empty() {
            write!(f, "wildcards:     {} resolved (", self.wildcards_resolved())?;
            for (i, (digit, n)) in self.wildcard_by_digit.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "digit {digit}: {n}")?;
            }
            writeln!(f, ")")?;
        }
        if let Some(ratio) = self.link_imbalance() {
            writeln!(
                f,
                "links:         {} used, imbalance (max/mean load) {ratio:.3}",
                self.links.len()
            )?;
            for ((from, to), stat) in self.hottest_links().into_iter().take(5) {
                writeln!(
                    f,
                    "  {} -> {}: {} forwards, {:.1}% busy, queue high-water {}",
                    self.name_of(from),
                    self.name_of(to),
                    stat.forwarded,
                    stat.utilization(self.last_time) * 100.0,
                    stat.queue_depth_high_water
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DropReason;
    use crate::{workload, ShardedSimulation, SimConfig, WildcardPolicy};
    use debruijn_core::{DeBruijn, ShiftKind, Word};

    fn w(s: &str) -> Word {
        Word::parse(2, s).unwrap()
    }

    #[test]
    fn aggregates_a_handwritten_stream() {
        let mut t = Telemetry::new();
        t.record(&NetEvent::Inject {
            time: 0,
            message: 0,
            source: w("0110"),
            destination: w("1011"),
            route_len: 1,
            shortest: 1,
        });
        t.record(&NetEvent::WildcardResolved {
            time: 1,
            message: 0,
            at: w("0110"),
            shift: ShiftKind::Right,
            digit: 1,
            policy: WildcardPolicy::LeastLoaded,
        });
        t.record(&NetEvent::Forward {
            time: 0,
            message: 0,
            hop: 0,
            from: w("0110"),
            to: w("1011"),
            departs: 1,
            arrives: 3,
            queue_wait: 1,
            queue_depth: 1,
        });
        t.record(&NetEvent::Deliver {
            time: 3,
            message: 0,
            hops: 1,
            latency: 3,
            shortest: 1,
        });
        t.record(&NetEvent::Inject {
            time: 0,
            message: 1,
            source: w("0000"),
            destination: w("1011"),
            route_len: 3,
            shortest: 3,
        });
        t.record(&NetEvent::Drop {
            time: 5,
            message: 1,
            reason: DropReason::DeadLink,
            at: w("0000"),
            upstream: None,
        });

        assert_eq!(t.injected, 2);
        assert_eq!(t.delivered, 1);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.in_flight(), 0);
        assert_eq!(t.wildcards_resolved(), 1);
        assert_eq!(t.last_time, 5);
        let src = w("0110").rank();
        let dst = w("1011").rank();
        assert_eq!(t.nodes[&src].injected, 1);
        assert_eq!(t.nodes[&src].forwarded, 1);
        assert_eq!(t.nodes[&src].wildcards, 1);
        assert_eq!(t.nodes[&dst].delivered, 1);
        // Message 1 was dropped while still at its source.
        assert_eq!(t.nodes[&w("0000").rank()].dropped, 1);
        let link = t.links[&(src, dst)];
        assert_eq!(link.forwarded, 1);
        assert_eq!(link.queue_depth_high_water, 1);
        assert_eq!(t.name_of(src), "0110");
        assert_eq!(t.name_of(42_000), "?");
        assert_eq!(t.link_imbalance(), Some(1.0));
        let text = t.to_string();
        assert!(text.contains("0 in flight"), "{text}");
        assert!(text.contains("dropped (dead-link): 1"), "{text}");
        assert!(text.contains("0110 -> 1011"), "{text}");
    }

    #[test]
    fn agrees_with_the_exact_recorder_on_a_real_run() {
        let space = DeBruijn::new(2, 6).unwrap();
        let sim = ShardedSimulation::new(space, SimConfig::default(), 1).unwrap();
        let traffic = workload::uniform_random(space, 2_000, 7);
        let mut exact = crate::record::InMemoryRecorder::new();
        let mut bounded = Telemetry::new();
        {
            let mut fan = crate::record::FanoutRecorder::new();
            fan.push(&mut exact);
            fan.push(&mut bounded);
            sim.run_recorded(&traffic, &mut fan);
        }
        assert_eq!(bounded.injected, exact.injected);
        assert_eq!(bounded.delivered, exact.delivered);
        assert_eq!(bounded.hops.count(), exact.hops.count());
        assert_eq!(bounded.hops.sum(), exact.hops.sum());
        // Hop counts are small integers: the log histogram is exact
        // there, so the quantiles agree perfectly.
        for p in [50.0, 90.0, 99.0] {
            assert_eq!(bounded.hops.percentile(p), exact.hops.percentile(p));
        }
        // Latencies may exceed the exact region; stay within the bound.
        for p in [50.0, 90.0, 99.0] {
            let e = exact.latency.percentile(p).unwrap() as f64;
            let b = bounded.latency.percentile(p).unwrap() as f64;
            assert!(
                (b - e).abs() <= e * LogHistogram::MAX_RELATIVE_ERROR,
                "p{p}: {b} vs {e}"
            );
        }
        assert_eq!(bounded.in_flight(), 0);
    }
}
