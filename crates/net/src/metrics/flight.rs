//! Anomaly-triggered post-mortem capture.
//!
//! Aggregate metrics tell you *that* a drop-rate spike or a queue
//! blow-up happened; diagnosing *why* needs the events leading up to
//! it. A [`FlightRecorder`] keeps the last `capacity` [`NetEvent`]s in
//! a ring buffer and watches a set of [`AnomalyTriggers`]; when one
//! fires, the buffered window (ending with the triggering event) is
//! frozen and — if a dump path is configured — written as JSONL by a
//! [`JsonlRecorder`], so the existing `dbr trace summary/links/hist`
//! toolkit works unchanged on the post-mortem dump.
//!
//! The recorder re-arms after each capture: the ring and the burst
//! windows reset so the next capture is again a window *around an
//! onset*, not the tail of the previous one. Dump files are
//! sequence-numbered (`path`, `path.2`, `path.3`, …) so firings never
//! overwrite each other, and [`MAX_CAPTURES`] bounds the total so a
//! sustained breach cannot hoard memory or flood the filesystem.
//! [`FlightRecorder::anomaly`]/[`FlightRecorder::window`] keep their
//! original meaning — the *first* capture, the onset of trouble.

use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

use crate::record::{DropReason, JsonlRecorder, NetEvent, Recorder};

/// Hard cap on captures per run: a sustained breach (every forward
/// over the queue limit, say) re-fires on each qualifying event, and
/// without a ceiling would buffer an unbounded capture list and write
/// an unbounded dump series.
pub const MAX_CAPTURES: usize = 16;

/// The dump path for capture number `seq` (1-based): capture 1 keeps
/// `path` itself, later captures append the sequence (`path.2`,
/// `path.3`, …), so every file from one run survives side by side and
/// each still ends in a `tail`-able, `dbr trace`-able JSONL name.
pub fn numbered_path(path: &Path, seq: usize) -> PathBuf {
    if seq <= 1 {
        return path.to_path_buf();
    }
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{seq}"));
    path.with_file_name(name)
}

/// A sliding-window rate trigger: fires when `count` qualifying
/// events land within `window` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// Qualifying events needed inside the window.
    pub count: usize,
    /// Window length in simulator ticks.
    pub window: u64,
}

/// What the flight recorder watches for.
///
/// Every trigger is optional; [`AnomalyTriggers::default`] enables all
/// four with thresholds loose enough that healthy light traffic never
/// trips them. `AnomalyTriggers { drop_burst: None,
/// ..Default::default() }` style selective disabling is supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnomalyTriggers {
    /// Drop-rate spike: any-reason drops within a sliding window.
    pub drop_burst: Option<Burst>,
    /// Routing-failure burst: `no-route`/`ttl` drops within a sliding
    /// window (the "destination unreachable" signature).
    pub no_route_burst: Option<Burst>,
    /// Queue high-water breach: a forward observing at least this many
    /// messages ahead of it.
    pub queue_depth_limit: Option<usize>,
    /// Stalled link: a forward waiting at least this many ticks.
    pub queue_wait_limit: Option<u64>,
}

impl Default for AnomalyTriggers {
    fn default() -> Self {
        Self {
            drop_burst: Some(Burst {
                count: 8,
                window: 128,
            }),
            no_route_burst: Some(Burst {
                count: 4,
                window: 128,
            }),
            queue_depth_limit: Some(1024),
            queue_wait_limit: Some(4096),
        }
    }
}

/// The anomaly that tripped a [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Anomaly {
    /// [`AnomalyTriggers::drop_burst`] fired at tick `at`.
    DropBurst {
        /// Drops observed inside the window.
        count: usize,
        /// Window length in ticks.
        window: u64,
        /// Tick of the triggering drop.
        at: u64,
    },
    /// [`AnomalyTriggers::no_route_burst`] fired at tick `at`.
    NoRouteBurst {
        /// `no-route`/`ttl` drops observed inside the window.
        count: usize,
        /// Window length in ticks.
        window: u64,
        /// Tick of the triggering drop.
        at: u64,
    },
    /// [`AnomalyTriggers::queue_depth_limit`] breached.
    QueueDepthBreach {
        /// Observed queue depth.
        depth: usize,
        /// Configured limit.
        limit: usize,
        /// Tick of the triggering forward.
        at: u64,
    },
    /// [`AnomalyTriggers::queue_wait_limit`] breached.
    StalledLink {
        /// Observed queue wait in ticks.
        queue_wait: u64,
        /// Configured limit.
        limit: u64,
        /// Tick of the triggering forward.
        at: u64,
    },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::DropBurst { count, window, at } => {
                write!(
                    f,
                    "drop burst: {count} drops within {window} ticks (at tick {at})"
                )
            }
            Anomaly::NoRouteBurst { count, window, at } => write!(
                f,
                "no-route/ttl burst: {count} routing failures within {window} ticks (at tick {at})"
            ),
            Anomaly::QueueDepthBreach { depth, limit, at } => write!(
                f,
                "queue high-water breach: depth {depth} >= limit {limit} (at tick {at})"
            ),
            Anomaly::StalledLink {
                queue_wait,
                limit,
                at,
            } => write!(
                f,
                "stalled link: queue wait {queue_wait} >= limit {limit} ticks (at tick {at})"
            ),
        }
    }
}

/// Fixed-capacity ring buffer of recent events with anomaly triggers.
///
/// Use as a [`Recorder`] sink (typically inside a fanout next to the
/// metrics recorder). After a trigger fires, [`FlightRecorder::anomaly`]
/// reports what happened, [`FlightRecorder::window`] holds the captured
/// pre-anomaly window, and the recorder re-arms for the next onset
/// (up to [`MAX_CAPTURES`], with dump files numbered per
/// [`numbered_path`]). [`FlightRecorder::finish`] surfaces any
/// dump-file write error.
///
/// # Examples
///
/// ```
/// use debruijn_core::Word;
/// use debruijn_net::metrics::{AnomalyTriggers, Burst, FlightRecorder};
/// use debruijn_net::{DropReason, NetEvent, Recorder};
///
/// let triggers = AnomalyTriggers {
///     drop_burst: Some(Burst { count: 2, window: 10 }),
///     ..AnomalyTriggers::default()
/// };
/// let mut flight = FlightRecorder::new(64, triggers);
/// let at = Word::parse(2, "0110")?;
/// for time in [3, 5] {
///     flight.record(&NetEvent::Drop {
///         time,
///         message: 0,
///         reason: DropReason::NoRoute,
///         at: at.clone(),
///         upstream: None,
///     });
/// }
/// assert!(flight.anomaly().is_some());
/// assert_eq!(flight.window().unwrap().len(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct FlightRecorder {
    capacity: usize,
    triggers: AnomalyTriggers,
    ring: VecDeque<NetEvent>,
    /// Recent drop ticks (any reason), oldest first.
    drop_times: VecDeque<u64>,
    /// Recent `no-route`/`ttl` drop ticks, oldest first.
    no_route_times: VecDeque<u64>,
    /// The frozen windows, one per firing, oldest first.
    captures: Vec<(Anomaly, Vec<NetEvent>)>,
    dump_path: Option<PathBuf>,
    error: Option<io::Error>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (at least 1).
    pub fn new(capacity: usize, triggers: AnomalyTriggers) -> Self {
        Self {
            capacity: capacity.max(1),
            triggers,
            ring: VecDeque::with_capacity(capacity.clamp(1, 4096)),
            drop_times: VecDeque::new(),
            no_route_times: VecDeque::new(),
            captures: Vec::new(),
            dump_path: None,
            error: None,
        }
    }

    /// Writes each captured window as JSONL the moment its trigger
    /// fires: the first to `path` itself, later firings to the
    /// sequence-numbered `path.2`, `path.3`, … (see [`numbered_path`]),
    /// so no firing overwrites an earlier one. Files are only created
    /// on an anomaly.
    pub fn with_dump_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.dump_path = Some(path.into());
        self
    }

    /// The first anomaly that fired — the onset of trouble — if any.
    pub fn anomaly(&self) -> Option<&Anomaly> {
        self.captures.first().map(|(a, _)| a)
    }

    /// The window captured around the *first* anomaly (oldest event
    /// first, ending with the triggering event), if a trigger fired.
    pub fn window(&self) -> Option<&[NetEvent]> {
        self.captures.first().map(|(_, w)| w.as_slice())
    }

    /// How many captures have fired so far (bounded by
    /// [`MAX_CAPTURES`]).
    pub fn capture_count(&self) -> usize {
        self.captures.len()
    }

    /// Every anomaly that fired, in firing order. Capture `i`
    /// (0-based) was dumped to `numbered_path(path, i + 1)`.
    pub fn anomalies(&self) -> impl Iterator<Item = &Anomaly> {
        self.captures.iter().map(|(a, _)| a)
    }

    /// Consumes the recorder: `Ok(Some(anomaly))` with the *first*
    /// anomaly if any trigger fired and every dump was written
    /// cleanly, `Ok(None)` if nothing happened.
    ///
    /// # Errors
    ///
    /// Returns the first dump-file write error.
    pub fn finish(self) -> io::Result<Option<Anomaly>> {
        if let Some(e) = self.error {
            return Err(e);
        }
        Ok(self.captures.into_iter().next().map(|(a, _)| a))
    }

    /// Slides `times` to `[now − window, now]`, pushes `now`, and
    /// reports whether the window now holds `count` entries.
    fn burst_fired(times: &mut VecDeque<u64>, burst: Burst, now: u64) -> bool {
        times.push_back(now);
        let cutoff = now.saturating_sub(burst.window);
        while times.front().is_some_and(|&t| t < cutoff) {
            times.pop_front();
        }
        times.len() >= burst.count
    }

    fn check_triggers(&mut self, event: &NetEvent) -> Option<Anomaly> {
        match event {
            NetEvent::Drop { time, reason, .. } => {
                if matches!(reason, DropReason::NoRoute | DropReason::Ttl) {
                    if let Some(burst) = self.triggers.no_route_burst {
                        if Self::burst_fired(&mut self.no_route_times, burst, *time) {
                            return Some(Anomaly::NoRouteBurst {
                                count: self.no_route_times.len(),
                                window: burst.window,
                                at: *time,
                            });
                        }
                    }
                }
                if let Some(burst) = self.triggers.drop_burst {
                    if Self::burst_fired(&mut self.drop_times, burst, *time) {
                        return Some(Anomaly::DropBurst {
                            count: self.drop_times.len(),
                            window: burst.window,
                            at: *time,
                        });
                    }
                }
                None
            }
            NetEvent::Forward {
                time,
                queue_wait,
                queue_depth,
                ..
            } => {
                if let Some(limit) = self.triggers.queue_depth_limit {
                    if *queue_depth >= limit {
                        return Some(Anomaly::QueueDepthBreach {
                            depth: *queue_depth,
                            limit,
                            at: *time,
                        });
                    }
                }
                if let Some(limit) = self.triggers.queue_wait_limit {
                    if *queue_wait >= limit {
                        return Some(Anomaly::StalledLink {
                            queue_wait: *queue_wait,
                            limit,
                            at: *time,
                        });
                    }
                }
                None
            }
            _ => None,
        }
    }

    fn dump(&mut self, window: &[NetEvent], seq: usize) {
        let Some(path) = &self.dump_path else { return };
        let result = File::create(numbered_path(path, seq)).and_then(|file| {
            let mut out = JsonlRecorder::new(BufWriter::new(file));
            window.iter().for_each(|event| out.record(event));
            out.finish().map(drop)
        });
        if let Err(e) = result {
            self.error.get_or_insert(e);
        }
    }
}

impl Recorder for FlightRecorder {
    /// Armed until [`MAX_CAPTURES`] windows have fired; afterwards the
    /// recorder stops consuming events.
    fn enabled(&self) -> bool {
        self.captures.len() < MAX_CAPTURES
    }

    fn record(&mut self, event: &NetEvent) {
        if self.captures.len() >= MAX_CAPTURES {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event.clone());
        if let Some(anomaly) = self.check_triggers(event) {
            // Freeze the window, then re-arm fresh: the ring and the
            // burst counters restart so the next capture documents a
            // new onset rather than the fading edge of this one.
            let window: Vec<NetEvent> = self.ring.drain(..).collect();
            self.drop_times.clear();
            self.no_route_times.clear();
            let seq = self.captures.len() + 1;
            self.dump(&window, seq);
            self.captures.push((anomaly, window));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use debruijn_core::Word;

    fn drop_at(time: u64, reason: DropReason) -> NetEvent {
        NetEvent::Drop {
            time,
            message: 0,
            reason,
            at: Word::parse(2, "0110").unwrap(),
            upstream: None,
        }
    }

    fn forward_at(time: u64, queue_wait: u64, queue_depth: usize) -> NetEvent {
        let w = Word::parse(2, "0110").unwrap();
        NetEvent::Forward {
            time,
            message: 0,
            hop: 0,
            from: w.clone(),
            to: w.shift_left(1),
            departs: time + queue_wait,
            arrives: time + queue_wait + 1,
            queue_wait,
            queue_depth,
        }
    }

    fn only_drop_burst(count: usize, window: u64) -> AnomalyTriggers {
        AnomalyTriggers {
            drop_burst: Some(Burst { count, window }),
            no_route_burst: None,
            queue_depth_limit: None,
            queue_wait_limit: None,
        }
    }

    #[test]
    fn drop_burst_fires_only_within_the_window() {
        // Three drops spread wider than the window: no anomaly.
        let mut calm = FlightRecorder::new(16, only_drop_burst(3, 10));
        for t in [0, 20, 40, 60] {
            calm.record(&drop_at(t, DropReason::DeadLink));
        }
        assert!(calm.anomaly().is_none());
        assert!(calm.finish().unwrap().is_none());
        // Three drops inside one window: anomaly, window captured.
        let mut hot = FlightRecorder::new(16, only_drop_burst(3, 10));
        hot.record(&forward_at(0, 0, 0));
        for t in [5, 8, 11] {
            hot.record(&drop_at(t, DropReason::DeadLink));
        }
        assert_eq!(
            hot.anomaly(),
            Some(&Anomaly::DropBurst {
                count: 3,
                window: 10,
                at: 11
            })
        );
        // The window ends with the triggering event and includes the
        // preceding context.
        let window = hot.window().unwrap();
        assert_eq!(window.len(), 4);
        assert_eq!(window.last().unwrap().time(), 11);
    }

    #[test]
    fn numbered_paths_keep_the_first_and_suffix_the_rest() {
        let base = Path::new("/tmp/flight.jsonl");
        assert_eq!(numbered_path(base, 1), PathBuf::from("/tmp/flight.jsonl"));
        assert_eq!(numbered_path(base, 2), PathBuf::from("/tmp/flight.jsonl.2"));
        assert_eq!(
            numbered_path(base, 12),
            PathBuf::from("/tmp/flight.jsonl.12")
        );
    }

    #[test]
    fn recorder_rearms_and_numbers_each_capture() {
        let dir = std::env::temp_dir().join("dbr-flight-rearm");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dump-{}.jsonl", std::process::id()));
        let mut flight = FlightRecorder::new(16, only_drop_burst(2, 5)).with_dump_path(&path);
        // Firing 1: two drops inside one window.
        flight.record(&drop_at(0, DropReason::NoRoute));
        flight.record(&drop_at(1, DropReason::NoRoute));
        assert_eq!(flight.capture_count(), 1);
        // One drop alone after the reset must NOT fire: the burst
        // counter restarted with the capture.
        flight.record(&forward_at(90, 0, 0));
        flight.record(&drop_at(100, DropReason::DeadLink));
        assert_eq!(flight.capture_count(), 1);
        // Firing 2: a second drop lands inside the fresh window.
        flight.record(&drop_at(101, DropReason::DeadLink));
        assert_eq!(flight.capture_count(), 2);
        // `anomaly()`/`window()` keep meaning the onset capture.
        assert!(matches!(
            flight.anomaly(),
            Some(Anomaly::DropBurst { at: 1, .. })
        ));
        assert_eq!(flight.window().unwrap().len(), 2);
        let second = flight.anomalies().nth(1).unwrap().clone();
        assert!(matches!(second, Anomaly::DropBurst { at: 101, .. }));
        flight.finish().unwrap();
        // Both dumps survive side by side and re-parse as traces.
        let first = std::fs::read_to_string(&path).unwrap();
        let rearmed = std::fs::read_to_string(numbered_path(&path, 2)).unwrap();
        assert_eq!(first.lines().count(), 2, "the onset burst");
        assert_eq!(rearmed.lines().count(), 3, "forward context + the burst");
        for line in first.lines().chain(rearmed.lines()) {
            crate::record::parse_event(2, line).expect("dump line parses");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(numbered_path(&path, 2)).ok();
    }

    #[test]
    fn capture_cap_disarms_the_recorder() {
        let mut flight = FlightRecorder::new(4, only_drop_burst(1, 1));
        for t in 0..(MAX_CAPTURES as u64 + 8) {
            if flight.enabled() {
                flight.record(&drop_at(t, DropReason::DeadLink));
            }
        }
        assert!(!flight.enabled());
        assert_eq!(flight.capture_count(), MAX_CAPTURES);
    }

    #[test]
    fn no_route_burst_counts_ttl_and_no_route_only() {
        let triggers = AnomalyTriggers {
            drop_burst: None,
            no_route_burst: Some(Burst {
                count: 2,
                window: 50,
            }),
            queue_depth_limit: None,
            queue_wait_limit: None,
        };
        let mut flight = FlightRecorder::new(16, triggers);
        // Dead-link drops never qualify.
        for t in [0, 1, 2, 3] {
            flight.record(&drop_at(t, DropReason::DeadLink));
        }
        assert!(flight.anomaly().is_none());
        flight.record(&drop_at(4, DropReason::Ttl));
        flight.record(&drop_at(5, DropReason::NoRoute));
        assert!(matches!(
            flight.anomaly(),
            Some(Anomaly::NoRouteBurst {
                count: 2,
                at: 5,
                ..
            })
        ));
    }

    #[test]
    fn queue_triggers_fire_on_breach() {
        let triggers = AnomalyTriggers {
            drop_burst: None,
            no_route_burst: None,
            queue_depth_limit: Some(4),
            queue_wait_limit: None,
        };
        let mut flight = FlightRecorder::new(16, triggers);
        flight.record(&forward_at(0, 3, 3));
        assert!(flight.anomaly().is_none());
        flight.record(&forward_at(1, 4, 4));
        assert!(matches!(
            flight.anomaly(),
            Some(Anomaly::QueueDepthBreach {
                depth: 4,
                limit: 4,
                ..
            })
        ));
        let triggers = AnomalyTriggers {
            drop_burst: None,
            no_route_burst: None,
            queue_depth_limit: None,
            queue_wait_limit: Some(10),
        };
        let mut flight = FlightRecorder::new(16, triggers);
        flight.record(&forward_at(0, 10, 2));
        assert!(matches!(
            flight.anomaly(),
            Some(Anomaly::StalledLink {
                queue_wait: 10,
                limit: 10,
                ..
            })
        ));
    }

    #[test]
    fn ring_capacity_bounds_the_window() {
        let mut flight = FlightRecorder::new(3, only_drop_burst(2, 5));
        for t in 0..10 {
            flight.record(&forward_at(t, 0, 0));
        }
        flight.record(&drop_at(100, DropReason::NoRoute));
        flight.record(&drop_at(101, DropReason::NoRoute));
        let window = flight.window().unwrap();
        assert_eq!(window.len(), 3, "ring keeps only the last `capacity`");
        assert_eq!(window.last().unwrap().time(), 101);
    }

    #[test]
    fn dump_round_trips_through_the_trace_parser() {
        let dir = std::env::temp_dir().join("dbr-flight-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dump-{}.jsonl", std::process::id()));
        let mut flight = FlightRecorder::new(16, only_drop_burst(2, 50)).with_dump_path(&path);
        flight.record(&forward_at(0, 1, 1));
        flight.record(&drop_at(2, DropReason::DeadLink));
        flight.record(&drop_at(3, DropReason::DeadLink));
        let anomaly = flight.finish().unwrap().expect("anomaly fired");
        assert!(matches!(anomaly, Anomaly::DropBurst { .. }));
        let text = std::fs::read_to_string(&path).unwrap();
        let events: Vec<NetEvent> = text
            .lines()
            .map(|l| crate::record::parse_event(2, l).unwrap())
            .collect();
        assert_eq!(events.len(), 3);
        assert_eq!(events.last().unwrap().time(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dump_write_errors_surface_in_finish() {
        let mut flight = FlightRecorder::new(4, only_drop_burst(1, 1))
            .with_dump_path("/nonexistent-dir/flight.jsonl");
        flight.record(&drop_at(0, DropReason::NoRoute));
        assert!(flight.anomaly().is_some(), "capture succeeds regardless");
        assert!(flight.finish().is_err());
    }

    /// Skewed (`--workload zipf`) load funnels a large fraction of a
    /// tick-0 burst into the rank-0 destination, so its in-links build
    /// queues far beyond anything uniform traffic produces: the
    /// queue-depth trigger fires from real simulator events, not
    /// synthetic ones.
    #[test]
    fn zipf_skew_trips_the_queue_depth_trigger_in_the_sharded_sim() {
        let space = debruijn_core::DeBruijn::new(2, 6).unwrap();
        let traffic = crate::workload::zipf(space, 3000, 1.2, 21);
        let triggers = AnomalyTriggers {
            drop_burst: None,
            no_route_burst: None,
            queue_depth_limit: Some(64),
            queue_wait_limit: None,
        };
        let mut flight = FlightRecorder::new(256, triggers);
        let sim =
            crate::shard::ShardedSimulation::new(space, crate::SimConfig::default(), 4).unwrap();
        let report = sim.run_recorded(&traffic, &mut flight);
        assert_eq!(report.delivered, 3000, "healthy network delivers");
        match flight.anomaly() {
            Some(Anomaly::QueueDepthBreach { depth, limit, .. }) => {
                assert!(depth >= limit, "{depth} < {limit}");
            }
            other => panic!("expected a queue-depth breach, got {other:?}"),
        }
        assert!(!flight.window().unwrap().is_empty());
    }

    /// Faulting the zipf-hottest node (rank 0) sheds a burst of
    /// dead-link drops dense enough for the default drop-burst
    /// threshold, and the dump stays a regular trace: every line
    /// re-parses through the `dbr trace` event parser.
    #[test]
    fn zipf_hotspot_fault_trips_the_drop_burst_and_dumps_a_parseable_trace() {
        let space = debruijn_core::DeBruijn::new(2, 6).unwrap();
        let hot = space.word_from_rank(0).unwrap();
        let traffic = crate::workload::zipf(space, 1000, 1.2, 33);
        let to_hot = traffic.iter().filter(|i| i.destination == hot).count();
        assert!(to_hot > 100, "rank 0 draws the skew ({to_hot}/1000)");
        let path =
            std::env::temp_dir().join(format!("dbr-flight-zipf-{}.jsonl", std::process::id()));
        let mut flight = FlightRecorder::new(128, only_drop_burst(8, 128)).with_dump_path(&path);
        let sim = crate::shard::ShardedSimulation::new(space, crate::SimConfig::default(), 4)
            .unwrap()
            .with_faults(vec![hot])
            .unwrap();
        let report = sim.run_recorded(&traffic, &mut flight);
        assert!(report.dropped >= 8, "the faulted hotspot sheds drops");
        assert!(matches!(
            flight.window().unwrap().last(),
            Some(NetEvent::Drop { .. })
        ));
        let anomaly = flight.finish().unwrap().expect("anomaly fired");
        assert!(matches!(anomaly, Anomaly::DropBurst { .. }), "{anomaly:?}");
        let text = std::fs::read_to_string(&path).unwrap();
        for seq in 1..=MAX_CAPTURES {
            std::fs::remove_file(numbered_path(&path, seq)).ok();
        }
        let events: Vec<NetEvent> = text
            .lines()
            .map(|l| crate::record::parse_event(2, l).expect("dump line parses"))
            .collect();
        assert!(events.len() >= 8, "window holds the burst");
    }

    #[test]
    fn anomalies_render_human_readably() {
        let text = Anomaly::DropBurst {
            count: 9,
            window: 128,
            at: 77,
        }
        .to_string();
        assert!(text.contains("9 drops within 128 ticks"), "{text}");
        let text = Anomaly::StalledLink {
            queue_wait: 5000,
            limit: 4096,
            at: 1,
        }
        .to_string();
        assert!(text.contains("stalled link"), "{text}");
    }
}
