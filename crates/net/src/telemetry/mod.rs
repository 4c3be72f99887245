//! Bounded-memory telemetry over the [`Recorder`] event stream.
//!
//! The recorder layer in [`record`](crate::record) makes every
//! simulator action visible; this module makes a
//! *multi-million-message* run measurable without the memory growing
//! with traffic:
//!
//! * [`LogHistogram`] — `O(1)`-record log-bucketed histogram with
//!   ≤ 0.8% quantile error (vs the exact but unbounded
//!   [`ExactHistogram`](crate::ExactHistogram));
//! * [`Telemetry`] — the [`EventFold`] of the stream (counters and
//!   six distributions, log-bucketed by default) plus per-link
//!   accumulators ([`LinkStat`]): utilization, queue-depth high-water
//!   marks, forward counts — the per-link view the paper's
//!   wildcard-balancing remark calls for;
//! * [`SnapshotRecorder`] — wraps [`Telemetry`] and prints an
//!   in-flight summary every N simulated ticks
//!   (`dbr simulate --progress N`);
//! * [`ChromeTraceRecorder`] — the one Chrome trace-event writer
//!   (Perfetto/`chrome://tracing` compatible): one track per node for
//!   the event stream (`dbr simulate --chrome-trace`, `dbr trace
//!   export`), and the engine profile's shard lanes.
//!
//! All state is bounded by the *network* (links), never by the number
//! of events recorded. See `docs/OBSERVABILITY.md` for the CLI surface
//! and `docs/adr/0002-exact-vs-log-bucketed-histograms.md` for the
//! histogram trade-off.

mod chrome;
mod links;
mod loghist;
mod snapshot;

pub use chrome::ChromeTraceRecorder;
pub use links::LinkStat;
pub use loghist::LogHistogram;
pub use snapshot::SnapshotRecorder;

use std::collections::BTreeMap;
use std::fmt;

use crate::record::{Distribution, EventFold, NetEvent, Recorder};

/// One event stream's [`EventFold`] plus per-link accumulators and the
/// clock, over log-bucketed histograms by default; `dbr trace` folds
/// into `Telemetry<ExactHistogram>` instead, so its reports stay exact.
///
/// Memory is `O(links)` with [`LogHistogram`]s, independent of how
/// many events are recorded; every [`Telemetry::record`] is `O(1)`
/// (amortized — map entries are created once per link).
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
/// assert_eq!(t.fold.delivered, report.delivered as u64);
/// assert_eq!(t.fold.hops.count(), 500);
/// assert_eq!(t.fold.in_flight(), 0);
/// // Per-link loads sum to the total hop count.
/// let forwards: u64 = t.links.values().map(|l| l.forwarded).sum();
/// assert_eq!(forwards, report.total_hops);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Telemetry<H = LogHistogram> {
    /// Counters and distributions.
    pub fold: EventFold<H>,
    /// Per-directed-link accumulators, keyed by `(from, to)` word
    /// ranks.
    pub links: BTreeMap<(u128, u128), LinkStat>,
    /// The clock: the largest tick seen, at a forward its `arrives`
    /// (the makespan so far). An injection never advances it; the
    /// engine emits each injection at its tick, and the message's first
    /// forward, reroute, delivery or drop follows it at that tick.
    pub last_time: u64,
    /// Display form of every link endpoint seen.
    names: BTreeMap<u128, String>,
}

impl Telemetry {
    /// An empty aggregator over log-bucketed histograms.
    pub fn new() -> Self {
        Self::default()
    }
}

impl<H> Telemetry<H> {
    /// Display form of a link endpoint's rank (`?` if never seen).
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
}

impl<H: Distribution> Recorder for Telemetry<H> {
    fn record(&mut self, event: &NetEvent) {
        self.fold.record(event);
        let now = match event {
            NetEvent::Inject { .. } => return,
            NetEvent::Forward {
                from,
                to,
                departs,
                arrives,
                queue_wait,
                queue_depth,
                ..
            } => {
                let link = (from.rank(), to.rank());
                self.names.entry(link.0).or_insert_with(|| from.to_string());
                self.names.entry(link.1).or_insert_with(|| to.to_string());
                self.links.entry(link).or_default().record_forward(
                    *departs,
                    *arrives,
                    *queue_wait,
                    *queue_depth,
                );
                *arrives
            }
            other => other.time(),
        };
        self.last_time = self.last_time.max(now);
    }
}

impl fmt::Display for Telemetry {
    /// Renders the bounded-memory summary: counters, distribution
    /// one-liners, and the five hottest links.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fold = &self.fold;
        writeln!(
            f,
            "messages: {} injected, {} delivered, {} dropped, {} in flight",
            fold.injected,
            fold.delivered,
            fold.dropped(),
            fold.in_flight()
        )?;
        for (reason, n) in &fold.drops_by_reason {
            writeln!(f, "  dropped ({reason}): {n}")?;
        }
        if fold.reroutes > 0 {
            writeln!(f, "fault-avoiding reroutes: {}", fold.reroutes)?;
        }
        writeln!(f, "hops:          {}", fold.hops.summary())?;
        writeln!(f, "stretch:       {}", fold.stretch.summary())?;
        writeln!(f, "latency:       {}", fold.latency.summary())?;
        writeln!(f, "per-hop:       {}", fold.per_hop_latency.summary())?;
        writeln!(f, "queue wait:    {}", fold.queue_wait.summary())?;
        writeln!(f, "queue depth:   {}", fold.queue_depth.summary())?;
        if !fold.wildcard_by_digit.is_empty() {
            write!(f, "wildcards:     {} resolved (", fold.wildcards_resolved())?;
            for (i, (digit, n)) in fold.wildcard_by_digit.iter().enumerate() {
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

        assert_eq!(t.fold.injected, 2);
        assert_eq!(t.fold.delivered, 1);
        assert_eq!(t.fold.dropped(), 1);
        assert_eq!(t.fold.in_flight(), 0);
        assert_eq!(t.fold.wildcards_resolved(), 1);
        assert_eq!(t.last_time, 5);
        let src = w("0110").rank();
        let dst = w("1011").rank();
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
        let bounded = &bounded.fold;
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
