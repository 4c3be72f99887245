//! Pluggable observability for the simulator: events, sinks, metrics.
//!
//! The paper's routing cost claim — `O(k) = O(log N)` hops per message,
//! with wildcard `*` steps balancing traffic (§3, Remark) — is about
//! *per-hop* behavior, but aggregate statistics
//! ([`SimReport`](crate::stats::SimReport)) cannot show it. This module makes every step of a message's life
//! observable:
//!
//! * [`NetEvent`] — span-style events for injection, wildcard
//!   resolution, forwarding (with queueing detail), source/hop
//!   rerouting, delivery and loss;
//! * [`Recorder`] — the sink trait the simulator drives; its
//!   [`Recorder::enabled`] gate lets the simulator skip event
//!   construction entirely when nobody listens;
//! * [`NullRecorder`] — the default sink: disabled, zero-cost;
//! * [`EventFold`] — the one mapping of events onto counters
//!   (wildcard resolutions per policy and digit, reroutes, drops per
//!   reason) and six distributions (per-hop latency, queue wait/depth,
//!   hop counts, stretch over the shortest distance `D(X,Y)`, latency),
//!   generic over the histogram kind; [`InMemoryRecorder`] is the fold
//!   into exact histograms;
//! * [`JsonlRecorder`] — line-delimited JSON export for offline
//!   analysis, with a parser ([`parse_event`]) so traces round-trip.
//!
//! See `docs/OBSERVABILITY.md` for the full event/metric reference and
//! the mapping back to the paper's quantities.

use std::collections::BTreeMap;
use std::fmt;
use std::io;

use debruijn_core::{ShiftKind, Word};

use crate::policy::WildcardPolicy;
use crate::stats::ExactHistogram;
use crate::telemetry::LogHistogram;

/// Why a message left the network without being delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DropReason {
    /// The source node itself is faulty.
    FaultySource,
    /// No route exists (destination faulty or network cut).
    NoRoute,
    /// The message arrived at a faulty node.
    FaultyNode,
    /// The message was handed to a dead link. The engine models node
    /// faults only; the reason stays so recorded traces that carry it
    /// still parse.
    DeadLink,
    /// The message exhausted its hop budget
    /// ([`SimConfig::ttl`](crate::SimConfig::ttl)) before arriving.
    Ttl,
}

impl DropReason {
    /// Stable kebab-case name used in JSONL output and metric keys.
    pub fn name(&self) -> &'static str {
        match self {
            DropReason::FaultySource => "faulty-source",
            DropReason::NoRoute => "no-route",
            DropReason::FaultyNode => "faulty-node",
            DropReason::DeadLink => "dead-link",
            DropReason::Ttl => "ttl",
        }
    }

    /// Whether the message was in flight when it was lost. A faulty
    /// source or a missing route drops it at injection, before its
    /// [`NetEvent::Inject`], so no in-flight count ever included it.
    pub fn was_in_flight(&self) -> bool {
        !matches!(self, DropReason::FaultySource | DropReason::NoRoute)
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "faulty-source" => DropReason::FaultySource,
            "no-route" => DropReason::NoRoute,
            "faulty-node" => DropReason::FaultyNode,
            "dead-link" => DropReason::DeadLink,
            "ttl" => DropReason::Ttl,
            _ => return None,
        })
    }
}

/// One observable event in the life of a simulated message.
///
/// `message` is always the index of the message in the injected
/// traffic; `time` is the simulator tick at which the event happened.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetEvent {
    /// A message entered the network at its source.
    Inject {
        /// Simulator tick.
        time: u64,
        /// Traffic index.
        message: usize,
        /// Source address.
        source: Word,
        /// Destination address.
        destination: Word,
        /// Length of the routing-path field the source computed (0
        /// under hop-by-hop forwarding, where no route is carried).
        route_len: usize,
        /// The fault-free shortest distance `D(source, destination)`
        /// under the configured network model (directed for
        /// uni-directional routers, undirected otherwise).
        shortest: usize,
    },
    /// A forwarding node resolved a wildcard `(a, *)` step to a digit.
    WildcardResolved {
        /// Simulator tick.
        time: u64,
        /// Traffic index.
        message: usize,
        /// The resolving node.
        at: Word,
        /// The shift type of the step (`a`).
        shift: ShiftKind,
        /// The digit substituted for `*`.
        digit: u8,
        /// The policy that chose it.
        policy: WildcardPolicy,
    },
    /// A message was handed to the link `from → to`.
    Forward {
        /// Tick of the handover.
        time: u64,
        /// Traffic index.
        message: usize,
        /// 0-based hop index along the message's path.
        hop: usize,
        /// Transmitting node.
        from: Word,
        /// Receiving node.
        to: Word,
        /// Tick the link starts serving the message (after queueing).
        departs: u64,
        /// Tick the message arrives at `to`.
        arrives: u64,
        /// Ticks spent waiting for the link (`departs − time`).
        queue_wait: u64,
        /// Messages queued ahead on the link at handover.
        queue_depth: usize,
    },
    /// A fault-avoiding route was computed (source reroute, or per-hop
    /// under hop-by-hop forwarding) instead of the label algorithm.
    Reroute {
        /// Simulator tick.
        time: u64,
        /// Traffic index.
        message: usize,
        /// The node that computed the detour.
        at: Word,
    },
    /// A message was accepted at its destination.
    Deliver {
        /// Simulator tick.
        time: u64,
        /// Traffic index.
        message: usize,
        /// Hops actually taken.
        hops: usize,
        /// Delivery latency in ticks (delivery − injection).
        latency: u64,
        /// The fault-free shortest distance recorded at injection.
        shortest: usize,
    },
    /// A message was lost.
    Drop {
        /// Simulator tick.
        time: u64,
        /// Traffic index.
        message: usize,
        /// Why it was lost.
        reason: DropReason,
        /// The node holding the message when it was lost (the source
        /// for injection-time drops, the faulty/expiring node
        /// otherwise).
        at: Word,
        /// The node that forwarded the message to `at`, when the loss
        /// happened mid-flight; `None` for drops at the source.
        upstream: Option<Word>,
    },
}

/// The coarse classes of [`NetEvent`], for per-class recorder
/// subscriptions ([`Recorder::wants`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventClass {
    /// [`NetEvent::Inject`].
    Inject,
    /// [`NetEvent::WildcardResolved`].
    Wildcard,
    /// [`NetEvent::Forward`].
    Forward,
    /// [`NetEvent::Reroute`].
    Reroute,
    /// [`NetEvent::Deliver`].
    Deliver,
    /// [`NetEvent::Drop`].
    Drop,
}

impl EventClass {
    /// Every class, in stream order.
    pub const ALL: [EventClass; 6] = [
        EventClass::Inject,
        EventClass::Wildcard,
        EventClass::Forward,
        EventClass::Reroute,
        EventClass::Deliver,
        EventClass::Drop,
    ];
}

impl NetEvent {
    /// The simulator tick the event carries.
    pub fn time(&self) -> u64 {
        match self {
            NetEvent::Inject { time, .. }
            | NetEvent::WildcardResolved { time, .. }
            | NetEvent::Forward { time, .. }
            | NetEvent::Reroute { time, .. }
            | NetEvent::Deliver { time, .. }
            | NetEvent::Drop { time, .. } => *time,
        }
    }

    /// The traffic index of the message the event belongs to.
    pub fn message(&self) -> usize {
        match self {
            NetEvent::Inject { message, .. }
            | NetEvent::WildcardResolved { message, .. }
            | NetEvent::Forward { message, .. }
            | NetEvent::Reroute { message, .. }
            | NetEvent::Deliver { message, .. }
            | NetEvent::Drop { message, .. } => *message,
        }
    }

    /// The node addresses the event names, in field order.
    pub fn addresses(&self) -> impl Iterator<Item = &Word> {
        let pair = match self {
            NetEvent::Inject {
                source,
                destination,
                ..
            } => [Some(source), Some(destination)],
            NetEvent::Forward { from, to, .. } => [Some(from), Some(to)],
            NetEvent::WildcardResolved { at, .. } | NetEvent::Reroute { at, .. } => {
                [Some(at), None]
            }
            NetEvent::Drop { at, upstream, .. } => [Some(at), upstream.as_ref()],
            NetEvent::Deliver { .. } => [None, None],
        };
        pair.into_iter().flatten()
    }

    /// The event's [`EventClass`].
    pub fn class(&self) -> EventClass {
        match self {
            NetEvent::Inject { .. } => EventClass::Inject,
            NetEvent::WildcardResolved { .. } => EventClass::Wildcard,
            NetEvent::Forward { .. } => EventClass::Forward,
            NetEvent::Reroute { .. } => EventClass::Reroute,
            NetEvent::Deliver { .. } => EventClass::Deliver,
            NetEvent::Drop { .. } => EventClass::Drop,
        }
    }
}

/// A sink for simulation events.
///
/// Implementations are driven synchronously from the event loop, in
/// simulation order. The [`Recorder::enabled`] gate is checked before
/// each event is *constructed*, so a disabled recorder (the default
/// [`NullRecorder`]) costs one virtual call per would-be event and no
/// allocation. Sinks that only care about part of the stream can
/// additionally narrow [`Recorder::wants`]: the engines snapshot the
/// per-class answers once per run and skip *constructing* events of
/// unwanted classes, so a drop-only sink (e.g. a fault-monitor set)
/// pays nothing for the forward/deliver flood.
pub trait Recorder {
    /// Whether the sink wants events at all. Checked before event
    /// construction; return `false` to make recording free.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether the sink wants events of `class`. Defaults to
    /// [`Recorder::enabled`]; override to subscribe to a subset.
    /// Engines snapshot the answers before a run, so they must not
    /// change mid-run.
    fn wants(&self, class: EventClass) -> bool {
        let _ = class;
        self.enabled()
    }

    /// Consumes one event.
    fn record(&mut self, event: &NetEvent);
}

/// Per-class event-construction gates, snapshotted from a recorder
/// once per engine run ([`Recorder::wants`] must not change mid-run).
/// A drop-only sink — e.g. a fault-monitor set — leaves the hot
/// forward/deliver path entirely event-free.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Observe {
    pub(crate) inject: bool,
    pub(crate) wildcard: bool,
    pub(crate) forward: bool,
    pub(crate) reroute: bool,
    pub(crate) deliver: bool,
    pub(crate) drop: bool,
}

impl Observe {
    /// Snapshots the recorder's subscriptions (all-false if disabled).
    pub(crate) fn of(recorder: &dyn Recorder) -> Self {
        if !recorder.enabled() {
            return Self::default();
        }
        Self {
            inject: recorder.wants(EventClass::Inject),
            wildcard: recorder.wants(EventClass::Wildcard),
            forward: recorder.wants(EventClass::Forward),
            reroute: recorder.wants(EventClass::Reroute),
            deliver: recorder.wants(EventClass::Deliver),
            drop: recorder.wants(EventClass::Drop),
        }
    }

    /// Whether any class is observed at all.
    pub(crate) fn any(self) -> bool {
        self.inject || self.wildcard || self.forward || self.reroute || self.deliver || self.drop
    }
}

/// The default sink: drops everything, costs nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &NetEvent) {}
}

/// An optional sink: `None` is disabled and records nothing, so a
/// caller can push every optional sink into a [`FanoutRecorder`].
impl<R: Recorder> Recorder for Option<R> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(R::enabled)
    }

    fn wants(&self, class: EventClass) -> bool {
        self.as_ref().is_some_and(|r| r.wants(class))
    }

    fn record(&mut self, event: &NetEvent) {
        if let Some(r) = self {
            r.record(event);
        }
    }
}

/// Fans one event stream out to several sinks (e.g. metrics + trace).
///
/// Enabled iff any child is enabled; wants a class iff any child
/// wants it; each event is routed only to the children that want its
/// class.
#[derive(Default)]
pub struct FanoutRecorder<'a> {
    sinks: Vec<&'a mut dyn Recorder>,
}

impl<'a> FanoutRecorder<'a> {
    /// An empty fanout (disabled until a sink is added).
    pub fn new() -> Self {
        Self { sinks: Vec::new() }
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: &'a mut dyn Recorder) {
        self.sinks.push(sink);
    }
}

impl Recorder for FanoutRecorder<'_> {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn wants(&self, class: EventClass) -> bool {
        self.sinks.iter().any(|s| s.wants(class))
    }

    fn record(&mut self, event: &NetEvent) {
        let class = event.class();
        for sink in &mut self.sinks {
            if sink.wants(class) {
                sink.record(event);
            }
        }
    }
}

/// A histogram an [`EventFold`] folds its distributions into: the
/// exact [`ExactHistogram`] or the bounded [`LogHistogram`].
pub trait Distribution: Default {
    /// Adds one observation.
    fn record(&mut self, value: u64);
}

impl Distribution for ExactHistogram {
    fn record(&mut self, value: u64) {
        ExactHistogram::record(self, value);
    }
}

impl Distribution for LogHistogram {
    fn record(&mut self, value: u64) {
        LogHistogram::record(self, value);
    }
}

/// The counters and six distributions of one event stream, over either
/// histogram kind: the one place a [`NetEvent`] maps onto metrics.
/// [`InMemoryRecorder`] folds into exact histograms;
/// [`Telemetry`](crate::Telemetry) folds into log-bucketed ones and adds
/// per-link accumulators.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventFold<H> {
    /// Messages that entered the network.
    pub injected: u64,
    /// Messages accepted at their destination.
    pub delivered: u64,
    /// Messages lost, by [`DropReason::name`].
    pub drops_by_reason: BTreeMap<&'static str, u64>,
    /// Fault-avoiding route computations.
    pub reroutes: u64,
    /// Per-hop latency: handover to arrival (queue wait + service +
    /// propagation), one observation per forward.
    pub per_hop_latency: H,
    /// Ticks each forward waited for a busy link.
    pub queue_wait: H,
    /// Messages already queued on the chosen link at each handover.
    pub queue_depth: H,
    /// Hops per delivered message (the paper's route length).
    pub hops: H,
    /// `hops − D(X,Y)` per delivered message: 0 for optimal routing,
    /// positive under fault detours or the trivial router.
    pub stretch: H,
    /// End-to-end delivery latency in ticks.
    pub latency: H,
    /// Wildcard resolutions by policy name.
    pub wildcard_by_policy: BTreeMap<&'static str, u64>,
    /// Wildcard resolutions by substituted digit — the balancing the
    /// paper's §3 Remark anticipates is visible as a flat digit
    /// distribution.
    pub wildcard_by_digit: BTreeMap<u8, u64>,
}

/// In-memory metrics: exact histograms and counters over one run.
///
/// # Examples
///
/// ```
/// use debruijn_core::DeBruijn;
/// use debruijn_net::record::InMemoryRecorder;
/// use debruijn_net::{workload, ShardedSimulation, SimConfig};
///
/// let space = DeBruijn::new(2, 4)?;
/// let sim = ShardedSimulation::new(space, SimConfig::default(), 1)?;
/// let traffic = workload::uniform_random(space, 100, 1);
/// let mut metrics = InMemoryRecorder::new();
/// let report = sim.run_recorded(&traffic, &mut metrics);
/// assert_eq!(metrics.delivered, report.delivered as u64);
/// assert_eq!(metrics.hops.count(), 100);
/// // Optimal routes never undercut the distance function.
/// assert_eq!(metrics.stretch.min(), Some(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type InMemoryRecorder = EventFold<ExactHistogram>;

impl<H: Distribution> EventFold<H> {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total messages lost.
    pub fn dropped(&self) -> u64 {
        self.drops_by_reason.values().sum()
    }

    /// Messages injected but not yet delivered or dropped (see
    /// [`DropReason::was_in_flight`]).
    pub fn in_flight(&self) -> u64 {
        let lost: u64 = self
            .drops_by_reason
            .iter()
            .filter(|(name, _)| DropReason::parse(name).is_some_and(|r| r.was_in_flight()))
            .map(|(_, n)| n)
            .sum();
        self.injected
            .saturating_sub(self.delivered)
            .saturating_sub(lost)
    }

    /// Total wildcard resolutions.
    pub fn wildcards_resolved(&self) -> u64 {
        self.wildcard_by_digit.values().sum()
    }
}

impl<H: Distribution> Recorder for EventFold<H> {
    fn record(&mut self, event: &NetEvent) {
        match event {
            NetEvent::Inject { .. } => self.injected += 1,
            NetEvent::WildcardResolved { digit, policy, .. } => {
                *self.wildcard_by_policy.entry(policy.name()).or_insert(0) += 1;
                *self.wildcard_by_digit.entry(*digit).or_insert(0) += 1;
            }
            NetEvent::Forward {
                time,
                arrives,
                queue_wait,
                queue_depth,
                ..
            } => {
                // Saturating: a hand-edited trace may claim an arrival
                // before the handover.
                self.per_hop_latency.record(arrives.saturating_sub(*time));
                self.queue_wait.record(*queue_wait);
                self.queue_depth.record(*queue_depth as u64);
            }
            NetEvent::Reroute { .. } => self.reroutes += 1,
            NetEvent::Deliver {
                hops,
                latency,
                shortest,
                ..
            } => {
                self.delivered += 1;
                self.hops.record(*hops as u64);
                self.stretch.record(hops.saturating_sub(*shortest) as u64);
                self.latency.record(*latency);
            }
            NetEvent::Drop { reason, .. } => {
                *self.drops_by_reason.entry(reason.name()).or_insert(0) += 1;
            }
        }
    }
}

impl fmt::Display for InMemoryRecorder {
    /// Renders the full metrics report (the `dbr simulate --metrics`
    /// output).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "messages: {} injected, {} delivered, {} dropped",
            self.injected,
            self.delivered,
            self.dropped()
        )?;
        if !self.drops_by_reason.is_empty() {
            for (reason, n) in &self.drops_by_reason {
                writeln!(f, "  dropped ({reason}): {n}")?;
            }
        }
        if self.reroutes > 0 {
            writeln!(f, "fault-avoiding reroutes: {}", self.reroutes)?;
        }
        writeln!(
            f,
            "\nhops per delivered message (mean {:.4}, p50 {}, p99 {}, max {}):",
            self.hops.mean(),
            self.hops.percentile(50.0).unwrap_or(0),
            self.hops.percentile(99.0).unwrap_or(0),
            self.hops.max().unwrap_or(0)
        )?;
        write!(f, "{}", self.hops)?;
        writeln!(
            f,
            "\nstretch over shortest D(X,Y) (mean {:.4}):",
            self.stretch.mean()
        )?;
        write!(f, "{}", self.stretch)?;
        writeln!(
            f,
            "\nper-hop latency in ticks (mean {:.4}, p99 {}):",
            self.per_hop_latency.mean(),
            self.per_hop_latency.percentile(99.0).unwrap_or(0)
        )?;
        write!(f, "{}", self.per_hop_latency)?;
        writeln!(
            f,
            "\nqueue wait per hop in ticks (mean {:.4}, max {}):",
            self.queue_wait.mean(),
            self.queue_wait.max().unwrap_or(0)
        )?;
        write!(f, "{}", self.queue_wait)?;
        writeln!(
            f,
            "\nqueue depth ahead at handover (mean {:.4}, max {}):",
            self.queue_depth.mean(),
            self.queue_depth.max().unwrap_or(0)
        )?;
        write!(f, "{}", self.queue_depth)?;
        writeln!(
            f,
            "\nend-to-end latency in ticks (mean {:.4}, p99 {}, max {}):",
            self.latency.mean(),
            self.latency.percentile(99.0).unwrap_or(0),
            self.latency.max().unwrap_or(0)
        )?;
        write!(f, "{}", self.latency)?;
        writeln!(f, "\nwildcard resolutions: {}", self.wildcards_resolved())?;
        for (policy, n) in &self.wildcard_by_policy {
            writeln!(f, "  by policy {policy}: {n}")?;
        }
        for (digit, n) in &self.wildcard_by_digit {
            writeln!(f, "  digit {digit}: {n}")?;
        }
        Ok(())
    }
}

/// Streams events as line-delimited JSON to any [`io::Write`].
///
/// One event per line, flat objects, stable `"type"` discriminants —
/// made for `jq`, pandas, or [`parse_event`]. Write errors are
/// sticky: recording stops at the first failure and
/// [`JsonlRecorder::finish`] reports it.
///
/// # Examples
///
/// ```
/// use debruijn_core::DeBruijn;
/// use debruijn_net::record::{parse_event, JsonlRecorder};
/// use debruijn_net::{workload, ShardedSimulation, SimConfig};
///
/// let space = DeBruijn::new(2, 4)?;
/// let sim = ShardedSimulation::new(space, SimConfig::default(), 1)?;
/// let traffic = workload::uniform_random(space, 10, 1);
/// let mut sink = JsonlRecorder::new(Vec::new());
/// sim.run_recorded(&traffic, &mut sink);
/// let bytes = sink.finish()?;
/// for line in String::from_utf8(bytes)?.lines() {
///     parse_event(2, line)?;
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct JsonlRecorder<W: io::Write> {
    out: W,
    error: Option<io::Error>,
}

impl<W: io::Write> JsonlRecorder<W> {
    /// Wraps a writer. Consider a `BufWriter` for file sinks.
    pub fn new(out: W) -> Self {
        Self { out, error: None }
    }

    /// Flushes and returns the writer, or the first write error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: io::Write> Recorder for JsonlRecorder<W> {
    fn enabled(&self) -> bool {
        self.error.is_none()
    }

    fn record(&mut self, event: &NetEvent) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = writeln!(self.out, "{}", render_json(event)) {
            self.error = Some(e);
        }
    }
}

fn shift_name(shift: ShiftKind) -> &'static str {
    match shift {
        ShiftKind::Left => "L",
        ShiftKind::Right => "R",
    }
}

/// Serializes one event as a single-line JSON object (no trailing
/// newline). Word addresses use their display form, so the line is
/// self-describing given the radix `d`.
pub fn render_json(event: &NetEvent) -> String {
    match event {
        NetEvent::Inject { time, message, source, destination, route_len, shortest } => format!(
            "{{\"type\":\"inject\",\"time\":{time},\"message\":{message},\"source\":\"{source}\",\"destination\":\"{destination}\",\"route_len\":{route_len},\"shortest\":{shortest}}}"
        ),
        NetEvent::WildcardResolved { time, message, at, shift, digit, policy } => format!(
            "{{\"type\":\"wildcard\",\"time\":{time},\"message\":{message},\"at\":\"{at}\",\"shift\":\"{}\",\"digit\":{digit},\"policy\":\"{}\"}}",
            shift_name(*shift),
            policy.name()
        ),
        NetEvent::Forward { time, message, hop, from, to, departs, arrives, queue_wait, queue_depth } => format!(
            "{{\"type\":\"forward\",\"time\":{time},\"message\":{message},\"hop\":{hop},\"from\":\"{from}\",\"to\":\"{to}\",\"departs\":{departs},\"arrives\":{arrives},\"queue_wait\":{queue_wait},\"queue_depth\":{queue_depth}}}"
        ),
        NetEvent::Reroute { time, message, at } => format!(
            "{{\"type\":\"reroute\",\"time\":{time},\"message\":{message},\"at\":\"{at}\"}}"
        ),
        NetEvent::Deliver { time, message, hops, latency, shortest } => format!(
            "{{\"type\":\"deliver\",\"time\":{time},\"message\":{message},\"hops\":{hops},\"latency\":{latency},\"shortest\":{shortest}}}"
        ),
        NetEvent::Drop { time, message, reason, at, upstream } => match upstream {
            Some(upstream) => format!(
                "{{\"type\":\"drop\",\"time\":{time},\"message\":{message},\"reason\":\"{}\",\"at\":\"{at}\",\"upstream\":\"{upstream}\"}}",
                reason.name()
            ),
            None => format!(
                "{{\"type\":\"drop\",\"time\":{time},\"message\":{message},\"reason\":\"{}\",\"at\":\"{at}\"}}",
                reason.name()
            ),
        },
    }
}

/// Parses one [`render_json`] line back into its event, given the
/// radix `d` of the simulated space (addresses are digit strings).
///
/// # Errors
///
/// Returns a human-readable message on malformed JSON, unknown event
/// types, or missing/ill-typed fields.
pub fn parse_event(d: u8, line: &str) -> Result<NetEvent, String> {
    let fields = parse_flat_object(line)?;
    let num = |key: &str| -> Result<u64, String> {
        match fields.get(key) {
            Some(JsonScalar::Num(n)) => Ok(*n),
            Some(JsonScalar::Str(_)) => Err(format!("field '{key}' is not a number")),
            None => Err(format!("missing field '{key}'")),
        }
    };
    let text = |key: &str| -> Result<&str, String> {
        match fields.get(key) {
            Some(JsonScalar::Str(s)) => Ok(s.as_str()),
            Some(JsonScalar::Num(_)) => Err(format!("field '{key}' is not a string")),
            None => Err(format!("missing field '{key}'")),
        }
    };
    let word = |key: &str| -> Result<Word, String> {
        Word::parse(d, text(key)?).map_err(|e| format!("bad word in '{key}': {e}"))
    };
    match text("type")? {
        "inject" => Ok(NetEvent::Inject {
            time: num("time")?,
            message: num("message")? as usize,
            source: word("source")?,
            destination: word("destination")?,
            route_len: num("route_len")? as usize,
            shortest: num("shortest")? as usize,
        }),
        "wildcard" => Ok(NetEvent::WildcardResolved {
            time: num("time")?,
            message: num("message")? as usize,
            at: word("at")?,
            shift: match text("shift")? {
                "L" => ShiftKind::Left,
                "R" => ShiftKind::Right,
                other => return Err(format!("unknown shift '{other}'")),
            },
            digit: num("digit")? as u8,
            policy: {
                let name = text("policy")?;
                WildcardPolicy::parse(name).ok_or_else(|| format!("unknown policy '{name}'"))?
            },
        }),
        "forward" => Ok(NetEvent::Forward {
            time: num("time")?,
            message: num("message")? as usize,
            hop: num("hop")? as usize,
            from: word("from")?,
            to: word("to")?,
            departs: num("departs")?,
            arrives: num("arrives")?,
            queue_wait: num("queue_wait")?,
            queue_depth: num("queue_depth")? as usize,
        }),
        "reroute" => Ok(NetEvent::Reroute {
            time: num("time")?,
            message: num("message")? as usize,
            at: word("at")?,
        }),
        "deliver" => Ok(NetEvent::Deliver {
            time: num("time")?,
            message: num("message")? as usize,
            hops: num("hops")? as usize,
            latency: num("latency")?,
            shortest: num("shortest")? as usize,
        }),
        "drop" => {
            let reason = text("reason")?;
            Ok(NetEvent::Drop {
                time: num("time")?,
                message: num("message")? as usize,
                reason: DropReason::parse(reason)
                    .ok_or_else(|| format!("unknown drop reason '{reason}'"))?,
                at: word("at")?,
                upstream: match fields.get("upstream") {
                    Some(_) => Some(word("upstream")?),
                    None => None,
                },
            })
        }
        other => Err(format!("unknown event type '{other}'")),
    }
}

enum JsonScalar {
    Num(u64),
    Str(String),
}

/// Parses a flat JSON object of string/unsigned-number values — the
/// only shape [`render_json`] emits. Not a general JSON parser.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, JsonScalar>, String> {
    let line = line.trim();
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| "expected a JSON object".to_string())?;
    let mut out = BTreeMap::new();
    let mut rest = inner.trim();
    while !rest.is_empty() {
        let after_quote = rest
            .strip_prefix('"')
            .ok_or_else(|| format!("expected a quoted key at '{rest}'"))?;
        let key_end = after_quote
            .find('"')
            .ok_or_else(|| "unterminated key".to_string())?;
        let key = &after_quote[..key_end];
        let after_key = after_quote[key_end + 1..]
            .trim_start()
            .strip_prefix(':')
            .ok_or_else(|| format!("expected ':' after key '{key}'"))?
            .trim_start();
        let (value, tail) = if let Some(s) = after_key.strip_prefix('"') {
            let end = s
                .find('"')
                .ok_or_else(|| "unterminated string".to_string())?;
            (JsonScalar::Str(s[..end].to_string()), &s[end + 1..])
        } else {
            let end = after_key.find([',', '}']).unwrap_or(after_key.len());
            let digits = after_key[..end].trim();
            let n = digits
                .parse::<u64>()
                .map_err(|_| format!("bad number '{digits}' for key '{key}'"))?;
            (JsonScalar::Num(n), &after_key[end..])
        };
        out.insert(key.to_string(), value);
        rest = tail.trim_start();
        if let Some(t) = rest.strip_prefix(',') {
            rest = t.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("trailing garbage '{rest}'"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(s: &str) -> Word {
        Word::parse(2, s).unwrap()
    }

    fn sample_events() -> Vec<NetEvent> {
        vec![
            NetEvent::Inject {
                time: 0,
                message: 0,
                source: w("0110"),
                destination: w("1011"),
                route_len: 1,
                shortest: 1,
            },
            NetEvent::WildcardResolved {
                time: 2,
                message: 0,
                at: w("0110"),
                shift: ShiftKind::Right,
                digit: 1,
                policy: WildcardPolicy::LeastLoaded,
            },
            NetEvent::Forward {
                time: 2,
                message: 0,
                hop: 0,
                from: w("0110"),
                to: w("1011"),
                departs: 3,
                arrives: 5,
                queue_wait: 1,
                queue_depth: 1,
            },
            NetEvent::Reroute {
                time: 4,
                message: 1,
                at: w("0000"),
            },
            NetEvent::Deliver {
                time: 5,
                message: 0,
                hops: 1,
                latency: 5,
                shortest: 1,
            },
            NetEvent::Drop {
                time: 6,
                message: 1,
                reason: DropReason::DeadLink,
                at: w("0000"),
                upstream: Some(w("1000")),
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_event_kind() {
        for event in sample_events() {
            let line = render_json(&event);
            let back = parse_event(2, &line).unwrap();
            assert_eq!(back, event, "{line}");
        }
    }

    #[test]
    fn time_and_message_accessors_cover_every_variant() {
        let times: Vec<u64> = sample_events().iter().map(NetEvent::time).collect();
        assert_eq!(times, [0, 2, 2, 4, 5, 6]);
        let messages: Vec<usize> = sample_events().iter().map(NetEvent::message).collect();
        assert_eq!(messages, [0, 0, 0, 1, 0, 1]);
    }

    /// Exhaustive serializer/parser round-trip: every [`NetEvent`]
    /// variant, every [`DropReason`], every [`WildcardPolicy`], both
    /// shift kinds, digit-boundary addresses (digit `d−1`, including
    /// the dot-separated form for `d > 10`), and `u64::MAX` /
    /// `usize::MAX` numeric fields.
    #[test]
    fn jsonl_round_trips_exhaustively() {
        let radixes: [(u8, &str, &str); 3] = [
            (2, "0111", "1110"),
            (10, "0919", "9090"),
            (12, "11.0.3.11", "0.11.11.5"),
        ];
        for (d, a, b) in radixes {
            let x = Word::parse(d, a).unwrap();
            let y = Word::parse(d, b).unwrap();
            let mut events = vec![NetEvent::Inject {
                time: u64::MAX,
                message: usize::MAX,
                source: x.clone(),
                destination: y.clone(),
                route_len: usize::MAX,
                shortest: 0,
            }];
            for shift in [ShiftKind::Left, ShiftKind::Right] {
                for policy in WildcardPolicy::all() {
                    events.push(NetEvent::WildcardResolved {
                        time: 0,
                        message: 7,
                        at: x.clone(),
                        shift,
                        digit: d - 1,
                        policy,
                    });
                }
            }
            events.push(NetEvent::Forward {
                time: u64::MAX - 1,
                message: 0,
                hop: usize::MAX,
                from: x.clone(),
                to: y.clone(),
                departs: u64::MAX,
                arrives: u64::MAX,
                queue_wait: u64::MAX,
                queue_depth: usize::MAX,
            });
            events.push(NetEvent::Reroute {
                time: 1,
                message: 0,
                at: y.clone(),
            });
            events.push(NetEvent::Deliver {
                time: u64::MAX,
                message: usize::MAX,
                hops: usize::MAX,
                latency: u64::MAX,
                shortest: usize::MAX,
            });
            for (i, reason) in [
                DropReason::FaultySource,
                DropReason::NoRoute,
                DropReason::FaultyNode,
                DropReason::DeadLink,
                DropReason::Ttl,
            ]
            .into_iter()
            .enumerate()
            {
                events.push(NetEvent::Drop {
                    time: u64::MAX,
                    message: 3,
                    reason,
                    at: x.clone(),
                    // Exercise both the sourced (no upstream) and
                    // mid-flight serialized forms.
                    upstream: (i % 2 == 1).then(|| y.clone()),
                });
            }
            for event in events {
                let line = render_json(&event);
                let back = parse_event(d, &line).unwrap_or_else(|e| panic!("d={d}: {e} in {line}"));
                assert_eq!(back, event, "d={d}: {line}");
            }
        }
    }

    #[test]
    fn jsonl_recorder_writes_one_line_per_event() {
        let mut sink = JsonlRecorder::new(Vec::new());
        let events = sample_events();
        for e in &events {
            sink.record(e);
        }
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), events.len());
        for (line, event) in lines.iter().zip(&events) {
            assert_eq!(&parse_event(2, line).unwrap(), event);
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_event(2, "not json").is_err());
        assert!(parse_event(2, "{\"type\":\"warp\"}").is_err());
        assert!(parse_event(2, "{\"type\":\"drop\",\"time\":0}").is_err());
        assert!(parse_event(
            2,
            "{\"type\":\"drop\",\"time\":0,\"message\":1,\"reason\":\"gremlins\",\"at\":\"0110\"}"
        )
        .is_err());
        // A drop without its location is rejected.
        assert!(parse_event(
            2,
            "{\"type\":\"drop\",\"time\":0,\"message\":1,\"reason\":\"ttl\"}"
        )
        .is_err());
        // A word from the wrong radix fails to parse back.
        let line = render_json(&NetEvent::Reroute {
            time: 0,
            message: 0,
            at: w("0110"),
        });
        assert!(parse_event(2, &line).is_ok());
    }

    #[test]
    fn null_recorder_is_disabled() {
        assert!(!NullRecorder.enabled());
    }

    #[test]
    fn fanout_forwards_to_all_enabled_sinks() {
        let mut a = InMemoryRecorder::new();
        let mut b = InMemoryRecorder::new();
        let mut null = NullRecorder;
        {
            let mut fan = FanoutRecorder::new();
            assert!(!fan.enabled(), "empty fanout is disabled");
            fan.push(&mut a);
            fan.push(&mut null);
            fan.push(&mut b);
            assert!(fan.enabled());
            for e in sample_events() {
                fan.record(&e);
            }
        }
        assert_eq!(a, b);
        assert_eq!(a.injected, 1);
        assert_eq!(a.delivered, 1);
        assert_eq!(a.dropped(), 1);
        assert_eq!(a.reroutes, 1);
        assert_eq!(a.wildcards_resolved(), 1);
    }

    #[test]
    fn fanout_routes_events_by_class() {
        /// Accepts only drops; counts everything offered to it.
        struct DropOnly {
            seen: usize,
        }
        impl Recorder for DropOnly {
            fn wants(&self, class: EventClass) -> bool {
                class == EventClass::Drop
            }
            fn record(&mut self, event: &NetEvent) {
                assert_eq!(event.class(), EventClass::Drop);
                self.seen += 1;
            }
        }
        let mut drops = DropOnly { seen: 0 };
        let mut everything = InMemoryRecorder::new();
        let mut fan = FanoutRecorder::new();
        fan.push(&mut drops);
        assert!(fan.wants(EventClass::Drop));
        assert!(
            !fan.wants(EventClass::Forward),
            "fanout of a drop-only sink must not request forwards"
        );
        fan.push(&mut everything);
        for class in EventClass::ALL {
            assert!(fan.wants(class), "a default sink widens every class");
        }
        for e in sample_events() {
            fan.record(&e);
        }
        drop(fan);
        assert_eq!(drops.seen, 1);
        assert_eq!(everything.injected, 1);
        assert_eq!(everything.delivered, 1);
    }

    #[test]
    fn event_class_covers_every_variant() {
        let classes: Vec<EventClass> = sample_events().iter().map(NetEvent::class).collect();
        assert_eq!(
            classes,
            [
                EventClass::Inject,
                EventClass::Wildcard,
                EventClass::Forward,
                EventClass::Reroute,
                EventClass::Deliver,
                EventClass::Drop,
            ]
        );
        assert_eq!(EventClass::ALL.to_vec(), classes);
    }

    #[test]
    fn in_memory_recorder_aggregates_sample_stream() {
        let mut m = InMemoryRecorder::new();
        for e in sample_events() {
            m.record(&e);
        }
        assert_eq!(m.per_hop_latency.count(), 1);
        assert_eq!(m.per_hop_latency.max(), Some(3)); // arrives 5 − time 2
        assert_eq!(m.queue_wait.max(), Some(1));
        assert_eq!(m.queue_depth.max(), Some(1));
        assert_eq!(m.hops.mean(), 1.0);
        assert_eq!(m.stretch.max(), Some(0));
        assert_eq!(m.latency.max(), Some(5));
        assert_eq!(m.drops_by_reason.get("dead-link"), Some(&1));
        assert_eq!(m.wildcard_by_policy.get("least-loaded"), Some(&1));
        assert_eq!(m.wildcard_by_digit.get(&1), Some(&1));
        let report = m.to_string();
        assert!(report.contains("wildcard resolutions: 1"), "{report}");
        assert!(report.contains("queue depth"), "{report}");
    }

    #[test]
    fn sticky_write_errors_disable_the_sink() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlRecorder::new(Failing);
        assert!(sink.enabled());
        sink.record(&sample_events()[0]);
        assert!(!sink.enabled(), "first failure disables the sink");
        assert!(sink.finish().is_err());
    }
}
