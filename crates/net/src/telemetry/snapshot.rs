//! Periodic in-flight summaries: `dbr simulate --progress N`.

use std::io;

use crate::record::{NetEvent, Recorder};
use crate::telemetry::Telemetry;

/// Wraps a [`Telemetry`] aggregator and prints one summary line every
/// `every` simulated ticks, so long runs report progress while still
/// in flight.
///
/// The snapshot clock follows *processed* events (forwards,
/// deliveries, drops, wildcard resolutions, reroutes), which the
/// simulator emits in non-decreasing time order; injection events are
/// aggregated but do not advance the clock. The engine emits each
/// injection at its tick, between the forwards, and the message's
/// first processed event follows it at the same tick. A snapshot is
/// emitted at the first processed event whose time reaches the next
/// `every`-tick boundary.
///
/// Write errors are sticky: after the first failure no further
/// snapshots are written (aggregation continues), and
/// [`SnapshotRecorder::finish`] reports the error.
///
/// # Examples
///
/// ```
/// use debruijn_core::DeBruijn;
/// use debruijn_net::telemetry::SnapshotRecorder;
/// use debruijn_net::{workload, ShardedSimulation, SimConfig};
///
/// let space = DeBruijn::new(2, 5)?;
/// let sim = ShardedSimulation::new(space, SimConfig::default(), 1)?;
/// let traffic = workload::uniform_random(space, 400, 3);
/// let mut snap = SnapshotRecorder::new(50, Vec::new());
/// sim.run_recorded(&traffic, &mut snap);
/// let (telemetry, out) = snap.finish()?;
/// assert_eq!(telemetry.fold.delivered, 400);
/// let text = String::from_utf8(out)?;
/// assert!(text.lines().count() >= 2, "several 50-tick boundaries passed");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SnapshotRecorder<W: io::Write> {
    telemetry: Telemetry,
    every: u64,
    next: u64,
    out: W,
    error: Option<io::Error>,
}

impl<W: io::Write> SnapshotRecorder<W> {
    /// Summarize every `every` ticks into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `every` is 0.
    pub fn new(every: u64, out: W) -> Self {
        assert!(every > 0, "snapshot interval must be positive");
        Self {
            telemetry: Telemetry::new(),
            every,
            next: every,
            out,
            error: None,
        }
    }

    /// The aggregation so far (readable mid-run).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Returns the final telemetry and the writer, or the first write
    /// error.
    pub fn finish(mut self) -> io::Result<(Telemetry, W)> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok((self.telemetry, self.out))
    }

    fn emit(&mut self, time: u64) {
        if self.error.is_some() {
            return;
        }
        let t = &self.telemetry;
        let fold = &t.fold;
        let hottest = t
            .hottest_links()
            .first()
            .map(|&((from, to), stat)| {
                format!(
                    " | hottest {} -> {} ({})",
                    t.name_of(from),
                    t.name_of(to),
                    stat.forwarded
                )
            })
            .unwrap_or_default();
        let line = format!(
            "[t {time}] in flight {} | delivered {}/{} dropped {} | hops mean {:.3} p99 {} | latency p99 {}{hottest}",
            fold.in_flight(),
            fold.delivered,
            fold.injected,
            fold.dropped(),
            fold.hops.mean(),
            fold.hops.percentile(99.0).unwrap_or(0),
            fold.latency.percentile(99.0).unwrap_or(0),
        );
        if let Err(e) = writeln!(self.out, "{line}") {
            self.error = Some(e);
        }
        // Skip boundaries the stream jumped over.
        self.next = (time / self.every + 1) * self.every;
    }
}

impl<W: io::Write> Recorder for SnapshotRecorder<W> {
    fn record(&mut self, event: &NetEvent) {
        self.telemetry.record(event);
        if !matches!(event, NetEvent::Inject { .. }) && event.time() >= self.next {
            self.emit(event.time());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DropReason;
    use debruijn_core::Word;

    fn forward(time: u64, message: usize) -> NetEvent {
        let w = Word::parse(2, "0110").unwrap();
        NetEvent::Forward {
            time,
            message,
            hop: 0,
            from: w.clone(),
            to: w.shift_left(1),
            departs: time,
            arrives: time + 1,
            queue_wait: 0,
            queue_depth: 0,
        }
    }

    #[test]
    fn emits_once_per_boundary_and_skips_gaps() {
        let mut snap = SnapshotRecorder::new(10, Vec::new());
        snap.record(&forward(5, 0)); // before first boundary
        snap.record(&forward(10, 0)); // boundary 10
        snap.record(&forward(12, 0)); // same window: no line
        snap.record(&forward(47, 0)); // jumps windows 20..40: one line
        snap.record(&forward(50, 0)); // boundary 50
        let (_, out) = snap.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        let times: Vec<&str> = text.lines().map(|l| l.split(']').next().unwrap()).collect();
        assert_eq!(times, ["[t 10", "[t 47", "[t 50"], "{text}");
        assert!(text.contains("hottest"), "{text}");
    }

    #[test]
    fn injections_do_not_advance_the_clock() {
        let mut snap = SnapshotRecorder::new(5, Vec::new());
        let w = Word::parse(2, "0110").unwrap();
        for m in 0..100usize {
            snap.record(&NetEvent::Inject {
                time: m as u64,
                message: m,
                source: w.clone(),
                destination: w.shift_left(1),
                route_len: 1,
                shortest: 1,
            });
        }
        let (t, out) = snap.finish().unwrap();
        assert_eq!(t.fold.injected, 100);
        assert!(out.is_empty(), "no processed events, no snapshots");
    }

    #[test]
    fn sticky_write_errors_stop_snapshots_not_aggregation() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("pipe closed"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut snap = SnapshotRecorder::new(1, Failing);
        snap.record(&forward(1, 0));
        snap.record(&forward(2, 0));
        snap.record(&NetEvent::Drop {
            time: 3,
            message: 0,
            reason: DropReason::DeadLink,
            at: Word::parse(2, "1011").unwrap(),
            upstream: None,
        });
        assert_eq!(snap.telemetry().fold.dropped(), 1, "aggregation continued");
        assert!(snap.finish().is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_is_rejected() {
        let _ = SnapshotRecorder::new(0, Vec::new());
    }
}
