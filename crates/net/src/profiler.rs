//! Shard-aware engine profiler: where does the sharded simulator's
//! wall clock actually go?
//!
//! The metrics layer counts *simulation* events (hops, drops, queue
//! waits in simulated ticks); nothing in it can say whether a flat
//! `speedup_vs_1_thread` is barrier wait, mailbox traffic, or genuine
//! compute imbalance. This module is the engine-side observatory:
//!
//! * **Phase timers** — each worker accumulates wall-clock nanoseconds
//!   per shard into the phases of the windowed loop ([`Phase`]):
//!   mailbox drain, batch merge, compute (the flight steps), barrier
//!   wait (via [`debruijn_parallel::TickBarrier`]`::sync_min_timed` —
//!   spins and yields included),
//!   and the end-of-run report merge. Slots are per-worker and
//!   mutex-held for the whole run, so the hot path adds only
//!   `Instant::now` calls.
//! * **Deterministic sampled causal tracing** — a [`SpanSampler`] tags
//!   ~1/N messages by hashing `(seed, message id)` exactly like the
//!   shard-invariant Random wildcard policy, so *which* messages are
//!   sampled is a pure function of the run, identical for every
//!   `--shards`/`--threads` combination. Sampled messages record one
//!   [`HopSpan`] per hop (enqueue tick, link FIFO residency, transit,
//!   and the shard crossing) stitched into end-to-end
//!   [`critical paths`](EngineProfile::critical_paths).
//! * **Exports** — a human table ([`EngineProfile::render`]), a JSON
//!   document for tooling ([`EngineProfile::to_json`]), a Chrome trace
//!   with one lane per shard ([`EngineProfile::chrome_trace`]), and
//!   registry families ([`EngineProfile::export_to`]).
//!
//! Profiling is branch-on-`Option`: the unprofiled
//! [`ShardedSimulation::run_recorded`](crate::ShardedSimulation::run_recorded)
//! path never constructs a timer or hashes a message, and the profiled
//! path never touches the report, trace, or metrics byte streams — the
//! determinism contract of `docs/SCALING.md` is preserved with
//! profiling on or off (tested on the shard/thread grid).

use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

use debruijn_core::rng::SplitMix64;
use debruijn_parallel::BarrierWait;

use crate::metrics::MetricsRegistry;
use crate::telemetry::{ChromeTraceRecorder, LogHistogram};

/// One phase of the sharded engine's windowed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Draining what the previous window sent to the shard into its
    /// tick queue.
    Mailbox,
    /// Restoring a tick batch to message-id order.
    Merge,
    /// Processing flights: forwarding, link booking, event recording.
    Compute,
    /// Waiting at the window barrier (spin + yield + min-fold).
    Barrier,
    /// The end-of-run single-threaded merge and event replay.
    Report,
}

impl Phase {
    /// The phases timed per shard inside the worker loop.
    pub(crate) const MEASURED: [Phase; 3] = [Phase::Mailbox, Phase::Merge, Phase::Compute];

    /// Every phase, in display order.
    pub const ALL: [Phase; 5] = [
        Phase::Compute,
        Phase::Barrier,
        Phase::Mailbox,
        Phase::Merge,
        Phase::Report,
    ];

    /// Stable kebab-free label (used as a metric label value).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Mailbox => "mailbox",
            Phase::Merge => "merge",
            Phase::Compute => "compute",
            Phase::Barrier => "barrier",
            Phase::Report => "report",
        }
    }

    fn lap_index(self) -> usize {
        match self {
            Phase::Mailbox => 0,
            Phase::Merge => 1,
            Phase::Compute => 2,
            Phase::Barrier | Phase::Report => unreachable!("not a per-lap phase"),
        }
    }
}

/// Configuration for a profiled run
/// ([`ShardedSimulation::run_profiled`](crate::ShardedSimulation::run_profiled)).
#[derive(Debug, Clone)]
pub struct ProfileConfig {
    /// Sample one message in `sample_every` for causal span tracing;
    /// `0` disables sampling, `1` samples everything.
    pub sample_every: u32,
    /// Record per-lap Chrome-trace slices (adds memory proportional to
    /// windows × shards; keep off for quick breakdowns).
    pub slices: bool,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        Self {
            sample_every: 64,
            slices: false,
        }
    }
}

/// Decides which messages carry causal spans: a pure function of
/// `(seed, message id)`, hashed exactly like the shard-invariant
/// Random wildcard policy — so the sampled set is identical for every
/// shard count, thread count, and next-hop tier.
///
/// # Examples
///
/// ```
/// use debruijn_net::profiler::SpanSampler;
///
/// let sampler = SpanSampler::new(0xDB, 64).unwrap();
/// // Pure: the same message answers the same everywhere.
/// assert_eq!(sampler.sampled(17), sampler.sampled(17));
/// // Rate 0 disables sampling entirely.
/// assert!(SpanSampler::new(0xDB, 0).is_none());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpanSampler {
    seed: u64,
    every: u32,
}

impl SpanSampler {
    /// A sampler tagging ~1 in `every` messages; `None` when `every`
    /// is 0 (sampling off).
    pub fn new(seed: u64, every: u32) -> Option<Self> {
        (every > 0).then_some(Self { seed, every })
    }

    /// The sampling rate denominator.
    pub fn every(&self) -> u32 {
        self.every
    }

    /// Whether `message` is in the sampled set.
    #[inline]
    pub fn sampled(&self, message: u32) -> bool {
        if self.every <= 1 {
            return true;
        }
        let mix = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(message) << 16);
        SplitMix64::new(mix)
            .next_u64()
            .is_multiple_of(u64::from(self.every))
    }
}

/// One hop of a sampled message's causal path. All times are simulated
/// ticks (deterministic); the shard endpoints expose mailbox crossings
/// for the configured shard count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopSpan {
    /// Message id (the injection index).
    pub message: u32,
    /// 0-based hop.
    pub hop: u32,
    /// Tick the hop was processed (enqueue at the outgoing link).
    pub start: u64,
    /// Tick the message left the link head — `departs - start` is the
    /// FIFO residency (queue wait).
    pub departs: u64,
    /// Arrival tick at the next node — `arrives - departs` is service
    /// plus latency.
    pub arrives: u64,
    /// Shard that processed the hop.
    pub from_shard: u32,
    /// Shard owning the next node (`!= from_shard` ⇒ a mailbox
    /// crossing).
    pub to_shard: u32,
}

/// Terminal record of a sampled message that reached its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampledDelivery {
    /// Message id (the injection index).
    pub message: u32,
    /// Injection tick.
    pub injected_at: u64,
    /// Delivery tick.
    pub delivered_at: u64,
    /// Hops taken.
    pub hops: u32,
}

/// One sampled message's spans stitched end to end
/// ([`EngineProfile::critical_paths`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CriticalPath {
    /// Message id.
    pub message: u32,
    /// Hops spanned.
    pub hops: u32,
    /// End-to-end simulated ticks (delivery latency when delivered,
    /// first-enqueue → last-arrival otherwise).
    pub ticks: u64,
    /// Total link FIFO residency along the path.
    pub queue_wait: u64,
    /// Total service + latency along the path.
    pub transit: u64,
    /// Hops that crossed a shard boundary (mailbox crossings).
    pub crossings: u32,
    /// Whether the message reached its destination.
    pub delivered: bool,
}

/// One timed lap, for the Chrome-trace export (a slice on the shard's
/// lane). Times are wall-clock nanoseconds from the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSlice {
    /// Which phase the lap measured.
    pub phase: Phase,
    /// The shard whose lane carries the slice.
    pub sid: u32,
    /// Nanoseconds from the profiled run's start.
    pub start_nanos: u64,
    /// Lap duration in nanoseconds.
    pub dur_nanos: u64,
}

/// Per-shard wall-clock and work accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardProf {
    /// Shard id.
    pub sid: usize,
    /// Worker that owned the shard (`sid % workers`).
    pub worker: usize,
    /// Nanoseconds draining this shard's inbound mailboxes.
    pub mailbox_nanos: u64,
    /// Nanoseconds restoring this shard's batches to id order.
    pub merge_nanos: u64,
    /// Nanoseconds processing this shard's flights.
    pub compute_nanos: u64,
    /// Flight steps processed (deterministic — a pure function of the
    /// workload and shard count, unlike the timers).
    pub steps: u64,
}

/// What one shard hands the profiler at end of run (deterministic
/// counters plus the sampled spans it witnessed).
#[derive(Debug, Default)]
pub(crate) struct ShardMeta {
    pub(crate) sid: usize,
    pub(crate) steps: u64,
    pub(crate) spans: Vec<HopSpan>,
    pub(crate) deliveries: Vec<SampledDelivery>,
}

/// Cap on recorded Chrome slices per worker — enough for hundreds of
/// thousands of windows, bounded against degenerate runs.
const MAX_SLICES_PER_WORKER: usize = 1 << 18;

/// One worker's accumulation slots. Each worker locks its own entry
/// for the whole run (the same ownership discipline as the shard
/// states), so there is no cross-thread traffic until the final merge.
#[derive(Debug)]
struct WorkerProf {
    /// Nanos per `(measured phase, sid)`, sid-indexed.
    lap_nanos: [Vec<u64>; 3],
    /// Lap-duration histograms per measured phase.
    lap_hist: [LogHistogram; 3],
    barrier: BarrierWait,
    windows: u64,
    slices: Vec<PhaseSlice>,
    truncated: bool,
}

impl WorkerProf {
    fn new(shards: usize) -> Self {
        Self {
            lap_nanos: std::array::from_fn(|_| vec![0; shards]),
            lap_hist: std::array::from_fn(|_| LogHistogram::new()),
            barrier: BarrierWait::default(),
            windows: 0,
            slices: Vec::new(),
            truncated: false,
        }
    }
}

/// The shared profiling state for one profiled run: an epoch, the
/// sampler, and one mutex-held slot per worker.
#[derive(Debug)]
pub(crate) struct ProfShared {
    shards: usize,
    epoch: Instant,
    slices: bool,
    sampler: Option<SpanSampler>,
    workers: Vec<Mutex<WorkerProf>>,
}

impl ProfShared {
    pub(crate) fn new(workers: usize, shards: usize, seed: u64, config: &ProfileConfig) -> Self {
        Self {
            shards,
            epoch: Instant::now(),
            slices: config.slices,
            sampler: SpanSampler::new(seed, config.sample_every),
            workers: (0..workers)
                .map(|_| Mutex::new(WorkerProf::new(shards)))
                .collect(),
        }
    }

    pub(crate) fn sampler(&self) -> Option<SpanSampler> {
        self.sampler
    }

    /// Locks worker `w`'s slot for the run and starts its lap clock.
    pub(crate) fn begin(&self, w: usize) -> WorkerTimer<'_> {
        WorkerTimer {
            prof: self.workers[w]
                .lock()
                .expect("worker owns its profile slot"),
            epoch: self.epoch,
            slices: self.slices,
            last: Instant::now(),
        }
    }

    /// Assembles the final [`EngineProfile`].
    pub(crate) fn finish(
        self,
        wall_nanos: u64,
        report_nanos: u64,
        metas: Vec<ShardMeta>,
    ) -> EngineProfile {
        let worker_count = self.workers.len();
        let mut shard_profs: Vec<ShardProf> = (0..self.shards)
            .map(|sid| ShardProf {
                sid,
                worker: sid % worker_count,
                ..ShardProf::default()
            })
            .collect();
        let mut barrier = Vec::with_capacity(worker_count);
        let mut phase_hist: Vec<(Phase, LogHistogram)> = Phase::MEASURED
            .iter()
            .map(|&p| (p, LogHistogram::new()))
            .collect();
        let mut windows = 0;
        let mut slices = Vec::new();
        let mut truncated = false;
        for slot in self.workers {
            let wp = slot.into_inner().expect("workers done");
            for (pi, per_sid) in wp.lap_nanos.iter().enumerate() {
                for (sid, &ns) in per_sid.iter().enumerate() {
                    let sp = &mut shard_profs[sid];
                    match pi {
                        0 => sp.mailbox_nanos += ns,
                        1 => sp.merge_nanos += ns,
                        _ => sp.compute_nanos += ns,
                    }
                }
            }
            for (pi, hist) in wp.lap_hist.iter().enumerate() {
                phase_hist[pi].1.merge(hist);
            }
            barrier.push(wp.barrier);
            windows = windows.max(wp.windows);
            slices.extend(wp.slices);
            truncated |= wp.truncated;
        }
        let mut spans = Vec::new();
        let mut deliveries = Vec::new();
        for meta in metas {
            if let Some(sp) = shard_profs.get_mut(meta.sid) {
                sp.steps = meta.steps;
            }
            spans.extend(meta.spans);
            deliveries.extend(meta.deliveries);
        }
        // Canonical orders, independent of shard/thread interleaving.
        spans.sort_by_key(|s| (s.message, s.hop));
        deliveries.sort_by_key(|d| d.message);
        slices.sort_by_key(|s| (s.start_nanos, s.sid));
        EngineProfile {
            shards: self.shards,
            workers: worker_count,
            wall_nanos,
            report_nanos,
            windows,
            shard_profs,
            barrier,
            phase_hist,
            sample_every: self.sampler.map_or(0, |s| s.every),
            spans,
            deliveries,
            slices,
            slices_truncated: truncated,
        }
    }
}

/// The per-worker lap clock held for the duration of a profiled run.
pub(crate) struct WorkerTimer<'a> {
    prof: MutexGuard<'a, WorkerProf>,
    epoch: Instant,
    slices: bool,
    last: Instant,
}

impl WorkerTimer<'_> {
    /// Restarts the lap clock (call after a barrier so its wait is not
    /// charged to the next phase — the barrier accounts for itself).
    pub(crate) fn reset(&mut self) {
        self.last = Instant::now();
    }

    /// Charges the time since the last lap to `(phase, sid)`.
    pub(crate) fn lap(&mut self, phase: Phase, sid: usize) {
        let now = Instant::now();
        let ns = u64::try_from((now - self.last).as_nanos()).unwrap_or(u64::MAX);
        let pi = phase.lap_index();
        self.prof.lap_nanos[pi][sid] += ns;
        self.prof.lap_hist[pi].record(ns);
        if self.slices {
            if self.prof.slices.len() < MAX_SLICES_PER_WORKER {
                let start = u64::try_from((self.last - self.epoch).as_nanos()).unwrap_or(u64::MAX);
                self.prof.slices.push(PhaseSlice {
                    phase,
                    sid: sid as u32,
                    start_nanos: start,
                    dur_nanos: ns,
                });
            } else {
                self.prof.truncated = true;
            }
        }
        self.last = now;
    }

    /// Counts one window crossing.
    pub(crate) fn window(&mut self) {
        self.prof.windows += 1;
    }

    /// The worker's barrier-wait accumulator, for
    /// [`TickBarrier::sync_min_timed`](debruijn_parallel::TickBarrier::sync_min_timed).
    pub(crate) fn barrier_mut(&mut self) -> &mut BarrierWait {
        &mut self.prof.barrier
    }
}

/// The result of a profiled run: phase breakdown, per-shard balance,
/// barrier accounting, and the sampled causal paths. Produced by
/// [`ShardedSimulation::run_profiled`](crate::ShardedSimulation::run_profiled);
/// rendered by `dbr profile`.
#[derive(Debug, Clone)]
pub struct EngineProfile {
    /// Shard count of the run.
    pub shards: usize,
    /// Worker (thread) count of the run.
    pub workers: usize,
    /// Wall clock of the whole run, nanoseconds.
    pub wall_nanos: u64,
    /// Wall clock of the end-of-run merge + event replay.
    pub report_nanos: u64,
    /// Barrier windows crossed.
    pub windows: u64,
    /// Per-shard accounting, sid order.
    pub shard_profs: Vec<ShardProf>,
    /// Per-worker barrier-wait accounting.
    pub barrier: Vec<BarrierWait>,
    /// Lap-duration histograms (nanoseconds) for the measured phases.
    pub phase_hist: Vec<(Phase, LogHistogram)>,
    /// The sampling denominator (0 = sampling was off).
    pub sample_every: u32,
    /// Sampled per-hop spans, `(message, hop)` order.
    pub spans: Vec<HopSpan>,
    /// Sampled deliveries, message order.
    pub deliveries: Vec<SampledDelivery>,
    /// Chrome-trace lap slices (empty unless [`ProfileConfig::slices`]).
    pub slices: Vec<PhaseSlice>,
    /// Whether the slice cap truncated recording.
    pub slices_truncated: bool,
}

impl EngineProfile {
    /// Total nanoseconds per phase, [`Phase::ALL`] order.
    pub fn phase_totals(&self) -> Vec<(Phase, u64)> {
        Phase::ALL
            .iter()
            .map(|&p| {
                let total = match p {
                    Phase::Mailbox => self.shard_profs.iter().map(|s| s.mailbox_nanos).sum(),
                    Phase::Merge => self.shard_profs.iter().map(|s| s.merge_nanos).sum(),
                    Phase::Compute => self.shard_profs.iter().map(|s| s.compute_nanos).sum(),
                    Phase::Barrier => self.barrier.iter().map(|b| b.nanos).sum(),
                    Phase::Report => self.report_nanos,
                };
                (p, total)
            })
            .collect()
    }

    /// Mailbox pushes that spilled past a bounded mailbox: always 0,
    /// since each window's mailbox buffers grow to its traffic. Kept
    /// for callers that still report the count.
    pub fn mailbox_overflows(&self) -> u64 {
        0
    }

    /// Flight steps processed, all shards.
    pub fn total_steps(&self) -> u64 {
        self.shard_profs.iter().map(|s| s.steps).sum()
    }

    /// Distinct sampled messages (with spans or a sampled delivery).
    pub fn sampled_messages(&self) -> usize {
        let mut n = 0;
        let mut last = None;
        for s in &self.spans {
            if last != Some(s.message) {
                n += 1;
                last = Some(s.message);
            }
        }
        for d in &self.deliveries {
            if self
                .spans
                .binary_search_by_key(&d.message, |s| s.message)
                .is_err()
            {
                n += 1;
            }
        }
        n
    }

    /// `max/mean` of per-shard flight steps — the deterministic load
    /// imbalance (1.0 = perfectly balanced).
    pub fn step_imbalance(&self) -> f64 {
        Self::imbalance_of(self.shard_profs.iter().map(|s| s.steps))
    }

    /// `max/mean` of per-shard compute nanoseconds — the wall-clock
    /// imbalance (includes per-step cost differences).
    pub fn compute_imbalance(&self) -> f64 {
        Self::imbalance_of(self.shard_profs.iter().map(|s| s.compute_nanos))
    }

    fn imbalance_of(values: impl Iterator<Item = u64>) -> f64 {
        let (mut max, mut sum, mut n) = (0u64, 0u128, 0u64);
        for v in values {
            max = max.max(v);
            sum += u128::from(v);
            n += 1;
        }
        if sum == 0 {
            return 1.0;
        }
        let mean = sum as f64 / n as f64;
        max as f64 / mean
    }

    /// The top-`k` sampled messages by end-to-end simulated ticks,
    /// ties broken by message id — a deterministic ranking of the
    /// slowest causal paths.
    pub fn critical_paths(&self, k: usize) -> Vec<CriticalPath> {
        let mut paths: Vec<CriticalPath> = Vec::new();
        let mut i = 0;
        while i < self.spans.len() {
            let message = self.spans[i].message;
            let mut j = i;
            let (mut queue_wait, mut transit, mut crossings) = (0u64, 0u64, 0u32);
            while j < self.spans.len() && self.spans[j].message == message {
                let s = &self.spans[j];
                queue_wait += s.departs - s.start;
                transit += s.arrives - s.departs;
                crossings += u32::from(s.from_shard != s.to_shard);
                j += 1;
            }
            let delivery = self
                .deliveries
                .binary_search_by_key(&message, |d| d.message)
                .ok()
                .map(|idx| self.deliveries[idx]);
            let ticks = match delivery {
                Some(d) => d.delivered_at - d.injected_at,
                None => self.spans[j - 1].arrives - self.spans[i].start,
            };
            paths.push(CriticalPath {
                message,
                hops: (j - i) as u32,
                ticks,
                queue_wait,
                transit,
                crossings,
                delivered: delivery.is_some(),
            });
            i = j;
        }
        paths.sort_by(|a, b| b.ticks.cmp(&a.ticks).then(a.message.cmp(&b.message)));
        paths.truncate(k);
        paths
    }

    /// The human-readable `== engine profile ==` block printed by
    /// `dbr profile`, with the top-`top` critical paths.
    pub fn render(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("== engine profile ==\n");
        let _ = writeln!(
            out,
            "wall clock:   {} | windows {} | {} worker(s) over {} shard(s)",
            fmt_ns(self.wall_nanos),
            self.windows,
            self.workers,
            self.shards
        );
        let totals = self.phase_totals();
        let grand: u64 = totals.iter().map(|&(_, ns)| ns).sum();
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>8}   lap distribution",
            "phase", "total", "share"
        );
        for (phase, ns) in &totals {
            let share = if grand == 0 {
                0.0
            } else {
                100.0 * *ns as f64 / grand as f64
            };
            let lap = self
                .phase_hist
                .iter()
                .find(|(p, _)| p == phase)
                .map(|(_, h)| {
                    if h.is_empty() {
                        "(no laps)".to_string()
                    } else {
                        h.summary()
                    }
                });
            let lap = match phase {
                Phase::Barrier => {
                    let spins: u64 = self.barrier.iter().map(|b| b.spins).sum();
                    let yields: u64 = self.barrier.iter().map(|b| b.yields).sum();
                    Some(format!("spins {spins}, yields {yields}"))
                }
                _ => lap,
            };
            let line = format!(
                "{:<10} {:>12} {:>7.1}%   {}",
                phase.name(),
                fmt_ns(*ns),
                share,
                lap.unwrap_or_default()
            );
            let _ = writeln!(out, "{}", line.trim_end());
        }
        let _ = writeln!(
            out,
            "{:<6} {:>6} {:>12} {:>12} {:>12} {:>12}",
            "shard", "worker", "steps", "compute", "mailbox", "merge"
        );
        for sp in &self.shard_profs {
            let _ = writeln!(
                out,
                "{:<6} {:>6} {:>12} {:>12} {:>12} {:>12}",
                sp.sid,
                sp.worker,
                sp.steps,
                fmt_ns(sp.compute_nanos),
                fmt_ns(sp.mailbox_nanos),
                fmt_ns(sp.merge_nanos)
            );
        }
        let _ = writeln!(
            out,
            "imbalance:    steps {:.2}x, compute {:.2}x (max/mean over shards)",
            self.step_imbalance(),
            self.compute_imbalance()
        );
        if self.sample_every == 0 {
            out.push_str("sampler:      off\n");
        } else {
            let _ = writeln!(
                out,
                "sampler:      1/{} by seed-hashed message id | {} message(s), {} span(s)",
                self.sample_every,
                self.sampled_messages(),
                self.spans.len()
            );
            let paths = self.critical_paths(top);
            let _ = writeln!(
                out,
                "critical paths (top {} sampled by end-to-end ticks):",
                paths.len()
            );
            for p in paths {
                let _ = writeln!(
                    out,
                    "  msg {:>8}  {:>6} ticks  {:>3} hops  wait {:>6}  transit {:>6}  \
                     crossings {:>3}  {}",
                    p.message,
                    p.ticks,
                    p.hops,
                    p.queue_wait,
                    p.transit,
                    p.crossings,
                    if p.delivered {
                        "delivered"
                    } else {
                        "in flight"
                    }
                );
            }
        }
        out
    }

    /// A self-describing JSON document for tooling (`--profile-out`),
    /// with the top-`top` critical paths.
    pub fn to_json(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"dbr-engine-profile/v1\",\n");
        let _ = writeln!(
            out,
            "  \"shards\": {}, \"workers\": {}, \"windows\": {},",
            self.shards, self.workers, self.windows
        );
        let _ = writeln!(
            out,
            "  \"wall_ns\": {}, \"report_ns\": {}, \"total_steps\": {},",
            self.wall_nanos,
            self.report_nanos,
            self.total_steps()
        );
        let totals = self.phase_totals();
        let grand: u64 = totals.iter().map(|&(_, ns)| ns).sum();
        out.push_str("  \"phases\": [");
        for (i, (phase, ns)) in totals.iter().enumerate() {
            let share = if grand == 0 {
                0.0
            } else {
                *ns as f64 / grand as f64
            };
            let _ = write!(
                out,
                "{}{{\"phase\":\"{}\",\"total_ns\":{},\"share\":{:.4}}}",
                if i == 0 { "" } else { "," },
                phase.name(),
                ns,
                share
            );
        }
        out.push_str("],\n  \"shards_detail\": [");
        for (i, sp) in self.shard_profs.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"sid\":{},\"worker\":{},\"steps\":{},\"compute_ns\":{},\
                 \"mailbox_ns\":{},\"merge_ns\":{}}}",
                if i == 0 { "" } else { "," },
                sp.sid,
                sp.worker,
                sp.steps,
                sp.compute_nanos,
                sp.mailbox_nanos,
                sp.merge_nanos
            );
        }
        out.push_str("],\n  \"barrier\": [");
        for (w, b) in self.barrier.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"worker\":{},\"wait_ns\":{},\"spins\":{},\"yields\":{},\"rounds\":{}}}",
                if w == 0 { "" } else { "," },
                w,
                b.nanos,
                b.spins,
                b.yields,
                b.rounds
            );
        }
        let _ = writeln!(
            out,
            "],\n  \"imbalance\": {{\"steps\": {:.4}, \"compute\": {:.4}}},",
            self.step_imbalance(),
            self.compute_imbalance()
        );
        let _ = writeln!(
            out,
            "  \"sampler\": {{\"every\": {}, \"messages\": {}, \"spans\": {}}},",
            self.sample_every,
            self.sampled_messages(),
            self.spans.len()
        );
        out.push_str("  \"critical_paths\": [");
        for (i, p) in self.critical_paths(top).iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"message\":{},\"ticks\":{},\"hops\":{},\"queue_wait\":{},\
                 \"transit\":{},\"crossings\":{},\"delivered\":{}}}",
                if i == 0 { "" } else { "," },
                p.message,
                p.ticks,
                p.hops,
                p.queue_wait,
                p.transit,
                p.crossings,
                p.delivered
            );
        }
        out.push_str("]\n}\n");
        out
    }

    /// A Chrome trace-event JSON array with one lane (thread track)
    /// per shard carrying its phase slices, written by the simulator's
    /// [`ChromeTraceRecorder`], so the file loads in `chrome://tracing`
    /// / Perfetto. Wall-clock nanoseconds map to the format's
    /// microseconds with fractional precision. Empty (but valid) when
    /// slices were not recorded.
    pub fn chrome_trace(&self) -> String {
        let mut chrome = ChromeTraceRecorder::new(Vec::new());
        for sp in &self.shard_profs {
            let lane = format!("shard {} (worker {})", sp.sid, sp.worker);
            chrome.track_name(sp.sid as u64, &lane);
        }
        for s in &self.slices {
            chrome.emit(&format!(
                "{{\"name\":\"{}\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":{:.3},\
                 \"dur\":{:.3},\"pid\":0,\"tid\":{}}}",
                s.phase.name(),
                s.start_nanos as f64 / 1000.0,
                s.dur_nanos as f64 / 1000.0,
                s.sid
            ));
        }
        let bytes = chrome.finish().expect("writing to a Vec cannot fail");
        String::from_utf8(bytes).expect("trace records are ASCII")
    }

    /// Publishes the profile into a [`MetricsRegistry`] as labeled
    /// families: `dbr_engine_phase_nanos_total{phase=…}` counters,
    /// `dbr_engine_phase_lap_ns{phase=…}` lap histograms, window and
    /// sampling counters.
    pub fn export_to(&self, registry: &MetricsRegistry) {
        for (phase, ns) in self.phase_totals() {
            registry
                .counter_with(
                    "dbr_engine_phase_nanos_total",
                    "Wall-clock nanoseconds per engine phase.",
                    &[("phase", phase.name())],
                )
                .add(ns);
        }
        for (phase, hist) in &self.phase_hist {
            registry
                .histogram_with(
                    "dbr_engine_phase_lap_ns",
                    "Lap durations per engine phase, nanoseconds.",
                    &[("phase", phase.name())],
                )
                .merge_from(hist);
        }
        registry
            .counter(
                "dbr_engine_windows_total",
                "Barrier windows crossed by the sharded engine.",
            )
            .add(self.windows);
        registry
            .counter(
                "dbr_engine_sampled_messages_total",
                "Messages tagged by the causal span sampler.",
            )
            .add(self.sampled_messages() as u64);
        registry
            .counter(
                "dbr_engine_sampled_spans_total",
                "Per-hop causal spans recorded by the sampler.",
            )
            .add(self.spans.len() as u64);
    }
}

/// Human duration: nanoseconds with an adaptive unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        message: u32,
        hop: u32,
        start: u64,
        departs: u64,
        arrives: u64,
        fs: u32,
        ts: u32,
    ) -> HopSpan {
        HopSpan {
            message,
            hop,
            start,
            departs,
            arrives,
            from_shard: fs,
            to_shard: ts,
        }
    }

    fn profile_with(spans: Vec<HopSpan>, deliveries: Vec<SampledDelivery>) -> EngineProfile {
        EngineProfile {
            shards: 2,
            workers: 1,
            wall_nanos: 1000,
            report_nanos: 10,
            windows: 3,
            shard_profs: vec![
                ShardProf {
                    sid: 0,
                    worker: 0,
                    compute_nanos: 600,
                    steps: 30,
                    ..ShardProf::default()
                },
                ShardProf {
                    sid: 1,
                    worker: 0,
                    compute_nanos: 200,
                    steps: 10,
                    ..ShardProf::default()
                },
            ],
            barrier: vec![BarrierWait::default()],
            phase_hist: Phase::MEASURED
                .iter()
                .map(|&p| (p, LogHistogram::new()))
                .collect(),
            sample_every: 4,
            spans,
            deliveries,
            slices: Vec::new(),
            slices_truncated: false,
        }
    }

    #[test]
    fn sampler_is_a_pure_function_with_roughly_the_requested_rate() {
        let sampler = SpanSampler::new(0xDB, 64).unwrap();
        let hits: Vec<u32> = (0..100_000).filter(|&m| sampler.sampled(m)).collect();
        // Around 1/64 of 100k = 1562; the hash is uniform enough that a
        // 3x band holds with huge margin.
        assert!(hits.len() > 500 && hits.len() < 4700, "{}", hits.len());
        // Purity: a second evaluation selects the identical set.
        let again: Vec<u32> = (0..100_000).filter(|&m| sampler.sampled(m)).collect();
        assert_eq!(hits, again);
        // Different seeds select different sets.
        let other = SpanSampler::new(0xDB + 1, 64).unwrap();
        assert_ne!(
            hits,
            (0..100_000)
                .filter(|&m| other.sampled(m))
                .collect::<Vec<_>>()
        );
        // Rate 1 samples everything; rate 0 is off.
        let all = SpanSampler::new(0xDB, 1).unwrap();
        assert!((0..1000).all(|m| all.sampled(m)));
        assert!(SpanSampler::new(0xDB, 0).is_none());
    }

    #[test]
    fn critical_paths_stitch_spans_and_rank_by_ticks() {
        let spans = vec![
            // msg 3: two hops, 1 tick queue wait, one shard crossing.
            span(3, 0, 0, 1, 3, 0, 1),
            span(3, 1, 3, 3, 5, 1, 1),
            // msg 7: one hop, slower end to end (delivered late).
            span(7, 0, 0, 4, 6, 0, 0),
        ];
        let deliveries = vec![
            SampledDelivery {
                message: 3,
                injected_at: 0,
                delivered_at: 5,
                hops: 2,
            },
            SampledDelivery {
                message: 7,
                injected_at: 0,
                delivered_at: 6,
                hops: 1,
            },
        ];
        let profile = profile_with(spans, deliveries);
        let paths = profile.critical_paths(10);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].message, 7);
        assert_eq!(paths[0].ticks, 6);
        assert_eq!(paths[0].queue_wait, 4);
        assert_eq!(paths[0].transit, 2);
        assert_eq!(paths[0].crossings, 0);
        assert!(paths[0].delivered);
        assert_eq!(paths[1].message, 3);
        assert_eq!(paths[1].ticks, 5);
        assert_eq!(paths[1].queue_wait, 1);
        assert_eq!(paths[1].transit, 4);
        assert_eq!(paths[1].crossings, 1);
        // Truncation honors k.
        assert_eq!(profile.critical_paths(1).len(), 1);
        assert_eq!(profile.sampled_messages(), 2);
    }

    #[test]
    fn undelivered_paths_fall_back_to_span_arithmetic() {
        let profile = profile_with(vec![span(9, 0, 2, 2, 4, 0, 0)], Vec::new());
        let paths = profile.critical_paths(5);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].ticks, 2); // 4 - 2
        assert!(!paths[0].delivered);
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let profile = profile_with(Vec::new(), Vec::new());
        // steps 30 and 10: mean 20, max 30 -> 1.5.
        assert!((profile.step_imbalance() - 1.5).abs() < 1e-9);
        // compute 600/200: mean 400, max 600 -> 1.5.
        assert!((profile.compute_imbalance() - 1.5).abs() < 1e-9);
        // All-zero shards read as balanced, not NaN.
        let mut empty = profile.clone();
        for sp in &mut empty.shard_profs {
            sp.steps = 0;
            sp.compute_nanos = 0;
        }
        assert_eq!(empty.step_imbalance(), 1.0);
        assert_eq!(empty.compute_imbalance(), 1.0);
    }

    #[test]
    fn render_and_json_carry_the_headline_sections() {
        let profile = profile_with(
            vec![span(3, 0, 0, 1, 3, 0, 1)],
            vec![SampledDelivery {
                message: 3,
                injected_at: 0,
                delivered_at: 3,
                hops: 1,
            }],
        );
        let text = profile.render(5);
        for needle in [
            "== engine profile ==",
            "phase",
            "compute",
            "barrier",
            "imbalance:",
            "sampler:      1/4",
            "critical paths (top 1",
            "msg        3",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
        let json = profile.to_json(5);
        for needle in [
            "\"schema\": \"dbr-engine-profile/v1\"",
            "\"phases\": [",
            "\"shards_detail\": [",
            "\"barrier\": [",
            "\"imbalance\": {",
            "\"critical_paths\": [",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
        }
        // Cheap well-formedness: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn chrome_trace_uses_the_array_framing_with_shard_lanes() {
        let mut profile = profile_with(Vec::new(), Vec::new());
        profile.slices = vec![PhaseSlice {
            phase: Phase::Compute,
            sid: 1,
            start_nanos: 1500,
            dur_nanos: 2500,
        }];
        let text = profile.chrome_trace();
        assert!(text.starts_with("[\n{"), "{text}");
        assert!(text.ends_with("\n]\n"), "{text}");
        assert!(text.contains("\"name\":\"shard 0 (worker 0)\""), "{text}");
        assert!(
            text.contains(
                "\"name\":\"compute\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":1.500,\"dur\":2.500"
            ),
            "{text}"
        );
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }

    #[test]
    fn export_to_registers_engine_families() {
        let profile = profile_with(
            vec![span(3, 0, 0, 1, 3, 0, 1)],
            vec![SampledDelivery {
                message: 3,
                injected_at: 0,
                delivered_at: 3,
                hops: 1,
            }],
        );
        let registry = MetricsRegistry::new();
        profile.export_to(&registry);
        let text = registry.snapshot().render();
        for needle in [
            "dbr_engine_phase_nanos_total{phase=\"compute\"} 800",
            "dbr_engine_phase_lap_ns",
            "dbr_engine_windows_total 3",
            "dbr_engine_sampled_messages_total 1",
            "dbr_engine_sampled_spans_total 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(17), "17 ns");
        assert_eq!(fmt_ns(1_700), "1.70 us");
        assert_eq!(fmt_ns(1_700_000), "1.70 ms");
        assert_eq!(fmt_ns(1_700_000_000), "1.70 s");
    }
}
