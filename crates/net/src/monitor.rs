//! Identifying-code monitors: network-wide fault localization from
//! per-node telemetry alone.
//!
//! The fault-injection machinery can break a node and the
//! flight-recorder can capture the resulting drop burst, but neither
//! says *which* node broke. This module closes the loop using the
//! identifying-code theory retrieved for the de Bruijn family
//! ([`debruijn_graph::identifying`], after Boutin/Horan/Pelto
//! arXiv:1412.5842 and Horan arXiv:1508.00403):
//!
//! 1. [`MonitorSet`] — a [`Recorder`] placed on a vertex code `C`.
//!    Each monitor folds the ingress telemetry it can see locally into
//!    a graded anomaly count: drops of messages it forwarded downstream
//!    (the drop's `upstream` attribution), drops at the node itself
//!    (the self bit, from the drop's `at` holder), and optionally
//!    queue-depth breaches attributed to the transmitting node. The
//!    set [subscribes](Recorder::wants) only to drop events (plus
//!    forwards when queue attribution is on), so the engines skip
//!    constructing the hot-path event flood entirely and monitoring
//!    costs next to nothing over an unmonitored run.
//! 2. The *observed signature* is the set of monitors whose count
//!    reached the threshold. Because a fault at `v` is visible exactly
//!    to the monitors in its closed in-ball `B⁻[v]`, a 1-identifying
//!    code makes the signature of every single-node fault unique.
//! 3. [`Localizer`] — decodes an observed signature back to the
//!    faulted node: [`Verdict::Exact`] when the signature matches one
//!    node's expected signature, [`Verdict::Ranked`] candidates under
//!    noise or partial observation, [`Verdict::Clean`] when nothing
//!    fired.
//!
//! [`MonitorSet::export`] publishes the `dbr_monitor_*` registry
//! families (placement size, signature bits, decode verdicts, decode
//! latency) and [`MonitorSet::dump_evidence`] writes the retained
//! anomaly window as a flight-recorder-style JSONL dump on decode.

use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::path::Path;
use std::time::Instant;

use debruijn_core::Word;
use debruijn_graph::identifying::{self, IdentifyError};
use debruijn_graph::DebruijnGraph;

use crate::metrics::MetricsRegistry;
use crate::record::{DropReason, EventClass, JsonlRecorder, NetEvent, Recorder};

/// How many retained anomaly events [`MonitorSet::dump_evidence`] can
/// write (oldest evicted first).
pub const EVIDENCE_CAPACITY: usize = 4096;

/// Which vertices carry monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// A verified 1-identifying code (the minimal-overhead placement
    /// that still localizes any single fault exactly).
    Identifying,
    /// Every vertex (the exhaustive baseline).
    All,
}

impl Placement {
    /// The placement [`name`](Self::name)d `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        [Placement::Identifying, Placement::All]
            .into_iter()
            .find(|p| p.name() == name)
    }

    /// Stable name used in CLI flags and metric labels.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::Identifying => "identifying",
            Placement::All => "all",
        }
    }
}

/// What a monitor observed, by attribution rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AnomalyKind {
    /// A message this monitor forwarded downstream was dropped at the
    /// receiving node (the upstream bit of the in-ball).
    UpstreamDrop,
    /// A drop at the monitor's own node (the self bit: faulty source,
    /// arrival at a faulty node, or a local no-route/dead-link/TTL
    /// loss).
    SelfDrop,
    /// A handover whose link queue depth reached the configured limit,
    /// attributed to the transmitting node.
    QueueBreach,
}

const ANOMALY_KINDS: usize = 3;

impl AnomalyKind {
    fn index(self) -> usize {
        match self {
            AnomalyKind::UpstreamDrop => 0,
            AnomalyKind::SelfDrop => 1,
            AnomalyKind::QueueBreach => 2,
        }
    }

    fn name(i: usize) -> &'static str {
        ["upstream-drop", "self-drop", "queue-breach"][i]
    }
}

/// Tuning knobs for [`MonitorSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorConfig {
    /// Graded anomaly count a monitor needs before its signature bit is
    /// considered set. 1 = any anomaly flags the bit.
    pub threshold: u64,
    /// Flag the transmitting node when a handover sees this many
    /// messages already queued. `None` (default) disables queue
    /// attribution, keeping signatures deterministic under load.
    pub queue_depth_limit: Option<usize>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        Self {
            threshold: 1,
            queue_depth_limit: None,
        }
    }
}

/// One flagged monitor in an observed signature: the evidence row the
/// localizer decodes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorReading {
    /// The monitor's vertex.
    pub node: Word,
    /// Total graded anomalies.
    pub total: u64,
    /// Counts by attribution rule, labelled.
    pub by_kind: Vec<(&'static str, u64)>,
}

/// Monitors placed on a vertex code, fed by the simulator's event
/// stream (directly as a [`Recorder`], or by replaying a saved trace).
pub struct MonitorSet {
    graph: DebruijnGraph,
    placement: Placement,
    config: MonitorConfig,
    /// node rank -> dense monitor slot, or `None` off the code.
    slot_of: Vec<Option<u32>>,
    /// monitor slot -> node rank (sorted by rank).
    monitors: Vec<u32>,
    /// Graded anomaly counts per slot and kind.
    counts: Vec<[u64; ANOMALY_KINDS]>,
    /// The anomalous events behind the flags, for the post-decode dump.
    evidence: VecDeque<NetEvent>,
}

impl MonitorSet {
    /// Monitors on a verified 1-identifying code of `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`IdentifyError::Twins`] when the graph is not
    /// 1-identifiable (e.g. undirected `DG(2,2)`).
    pub fn identifying(graph: DebruijnGraph) -> Result<Self, IdentifyError> {
        let code = identifying::identifying_code(&graph)?;
        Ok(Self::on_code(graph, Placement::Identifying, code))
    }

    /// Monitors on every vertex: the exhaustive baseline placement.
    pub fn all(graph: DebruijnGraph) -> Self {
        let code: Vec<u32> = graph.nodes().collect();
        Self::on_code(graph, Placement::All, code)
    }

    fn on_code(graph: DebruijnGraph, placement: Placement, code: Vec<u32>) -> Self {
        let mut slot_of = vec![None; graph.node_count()];
        for (slot, &rank) in code.iter().enumerate() {
            slot_of[rank as usize] = Some(slot as u32);
        }
        let counts = vec![[0; ANOMALY_KINDS]; code.len()];
        Self {
            graph,
            placement,
            config: MonitorConfig::default(),
            slot_of,
            monitors: code,
            counts,
            evidence: VecDeque::new(),
        }
    }

    /// Replaces the default [`MonitorConfig`]. Apply before handing
    /// the set to an engine: the queue limit widens the event
    /// [subscription](Recorder::wants), which engines snapshot once
    /// per run.
    pub fn with_config(mut self, config: MonitorConfig) -> Self {
        self.config = config;
        self
    }

    /// The placement strategy in force.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The monitored graph.
    pub fn graph(&self) -> &DebruijnGraph {
        &self.graph
    }

    /// The monitor vertices (sorted ranks).
    pub fn monitors(&self) -> &[u32] {
        &self.monitors
    }

    /// The observed signature: ranks of monitors whose graded count
    /// reached the threshold, sorted.
    pub fn observed(&self) -> Vec<u32> {
        self.monitors
            .iter()
            .zip(&self.counts)
            .filter(|(_, c)| c.iter().sum::<u64>() >= self.config.threshold)
            .map(|(&rank, _)| rank)
            .collect()
    }

    /// Evidence rows for every flagged monitor, in rank order.
    pub fn readings(&self) -> Vec<MonitorReading> {
        self.monitors
            .iter()
            .zip(&self.counts)
            .filter(|(_, c)| c.iter().sum::<u64>() >= self.config.threshold)
            .map(|(&rank, counts)| MonitorReading {
                node: self.graph.word_of(rank),
                total: counts.iter().sum(),
                by_kind: counts
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(i, &n)| (AnomalyKind::name(i), n))
                    .collect(),
            })
            .collect()
    }

    /// Decodes the observed signature (see [`Localizer::decode`]).
    pub fn localize(&self) -> Verdict {
        Localizer::new(&self.graph, &self.monitors).decode(&self.observed())
    }

    /// Publishes the `dbr_monitor_*` families into `registry`:
    /// placement gauges, per-monitor signature bits (flagged monitors
    /// only — the families stay sparse), the decode verdict counter and
    /// the decode latency histogram.
    pub fn export(&self, registry: &MetricsRegistry) -> Verdict {
        registry
            .gauge_with(
                "dbr_monitor_nodes",
                "Vertices carrying monitors, by placement strategy.",
                &[("placement", self.placement.name())],
            )
            .set(self.monitors.len() as i64);
        for reading in self.readings() {
            let node = reading.node.to_string();
            registry
                .gauge_with(
                    "dbr_monitor_signature_bits",
                    "Graded anomaly count per flagged monitor (signature bit when >= threshold).",
                    &[("monitor", &node)],
                )
                .set(reading.total as i64);
        }
        let start = Instant::now();
        let verdict = self.localize();
        let elapsed = start.elapsed().as_nanos() as u64;
        registry
            .counter_with(
                "dbr_monitor_decode_total",
                "Signature decodes by verdict.",
                &[("verdict", verdict.name())],
            )
            .inc();
        registry
            .histogram_with(
                "dbr_monitor_decode_latency_ns",
                "Wall-clock nanoseconds per signature decode.",
                &[],
            )
            .observe(elapsed);
        verdict
    }

    /// Writes the retained anomaly window (the events behind the
    /// flags, oldest first, capped at [`EVIDENCE_CAPACITY`]) as a
    /// flight-recorder-style JSONL dump through a [`JsonlRecorder`],
    /// replayable by `dbr trace` and
    /// [`parse_event`](crate::record::parse_event).
    ///
    /// # Errors
    ///
    /// Propagates file-creation and write errors.
    pub fn dump_evidence(&self, path: &Path) -> io::Result<()> {
        let mut out = JsonlRecorder::new(io::BufWriter::new(std::fs::File::create(path)?));
        self.evidence.iter().for_each(|event| out.record(event));
        out.finish().map(drop)
    }

    /// Number of retained evidence events.
    pub fn evidence_len(&self) -> usize {
        self.evidence.len()
    }

    fn flag(&mut self, rank: u32, kind: AnomalyKind) -> bool {
        match self.slot_of[rank as usize] {
            Some(slot) => {
                self.counts[slot as usize][kind.index()] += 1;
                true
            }
            None => false,
        }
    }

    fn retain_evidence(&mut self, event: &NetEvent) {
        if self.evidence.len() == EVIDENCE_CAPACITY {
            self.evidence.pop_front();
        }
        self.evidence.push_back(event.clone());
    }

    fn rank(&self, word: &Word) -> u32 {
        self.graph.rank_of(word)
    }
}

impl Recorder for MonitorSet {
    /// Drops always; forwards only when queue attribution is on. The
    /// engines snapshot these answers and skip constructing every
    /// other event class, which is what keeps monitored runs at
    /// monitors-off speed.
    fn wants(&self, class: EventClass) -> bool {
        match class {
            EventClass::Drop => true,
            EventClass::Forward => self.config.queue_depth_limit.is_some(),
            _ => false,
        }
    }

    fn record(&mut self, event: &NetEvent) {
        match event {
            NetEvent::Forward {
                from, queue_depth, ..
            } => {
                if let Some(limit) = self.config.queue_depth_limit {
                    let from = self.rank(from);
                    if *queue_depth >= limit && self.flag(from, AnomalyKind::QueueBreach) {
                        self.retain_evidence(event);
                    }
                }
            }
            NetEvent::Drop {
                reason,
                at,
                upstream,
                ..
            } => {
                // The self bit: a monitor on the failing node itself
                // sees the loss (watchdog semantics). The drop's
                // holder pins it for every reason.
                let mut flagged = self.flag(self.rank(at), AnomalyKind::SelfDrop);
                // The upstream bit: the node that forwarded the
                // message into the failure observes the drop of its
                // own downstream traffic. Together with the self bit
                // this trips exactly the closed in-ball of the faulty
                // node.
                if *reason == DropReason::FaultyNode {
                    if let Some(upstream) = upstream {
                        flagged |= self.flag(self.rank(upstream), AnomalyKind::UpstreamDrop);
                    }
                }
                if flagged {
                    self.retain_evidence(event);
                }
            }
            NetEvent::Inject { .. }
            | NetEvent::Deliver { .. }
            | NetEvent::WildcardResolved { .. }
            | NetEvent::Reroute { .. } => {}
        }
    }
}

/// How confidently a signature decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// No monitor flagged: no fault observed.
    Clean,
    /// The signature matches exactly one node's expected signature —
    /// with a verified identifying code this is guaranteed for any
    /// single fault whose ball traffic was observed.
    Exact {
        /// The localized faulty node.
        node: Word,
    },
    /// Noisy or partial signature: candidates ranked best-first.
    Ranked {
        /// Candidate nodes, best match first.
        candidates: Vec<Candidate>,
    },
}

impl Verdict {
    /// Stable name used in metric labels and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Clean => "clean",
            Verdict::Exact { .. } => "exact",
            Verdict::Ranked { .. } => "ranked",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Clean => write!(f, "clean — no monitor flagged"),
            Verdict::Exact { node } => write!(f, "exact — faulty node {node}"),
            Verdict::Ranked { candidates } => {
                write!(f, "ranked — {} candidate(s)", candidates.len())?;
                if let Some(best) = candidates.first() {
                    write!(f, ", best {}", best.node)?;
                }
                Ok(())
            }
        }
    }
}

/// One ranked decode candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Candidate {
    /// The candidate faulty node.
    pub node: Word,
    /// Flagged monitors inside the candidate's expected signature.
    pub matched: usize,
    /// Symmetric difference between observed and expected signatures
    /// (0 = perfect match).
    pub mismatch: usize,
}

/// Decodes observed monitor signatures back to faulted nodes.
///
/// Holds the expected-signature table `σ(v) = B⁻[v] ∩ C` for every
/// vertex; [`decode`](Self::decode) compares an observation against it.
pub struct Localizer<'a> {
    graph: &'a DebruijnGraph,
    is_monitor: Vec<bool>,
}

impl<'a> Localizer<'a> {
    /// A localizer for monitors on `code` over `graph`.
    pub fn new(graph: &'a DebruijnGraph, code: &[u32]) -> Self {
        let mut is_monitor = vec![false; graph.node_count()];
        for &c in code {
            is_monitor[c as usize] = true;
        }
        Self { graph, is_monitor }
    }

    /// The expected signature of a fault at `node`, sorted.
    pub fn expected(&self, node: u32) -> Vec<u32> {
        identifying::closed_in_ball(self.graph, node)
            .into_iter()
            .filter(|&u| self.is_monitor[u as usize])
            .collect()
    }

    /// Decodes a sorted observed signature.
    ///
    /// Candidates are the nodes whose ball contains at least one
    /// flagged monitor (every other node is unobservable from the
    /// evidence). [`Verdict::Exact`] requires a unique candidate whose
    /// expected signature equals the observation; otherwise candidates
    /// are ranked by matched bits (desc), then symmetric-difference
    /// size (asc), then rank.
    pub fn decode(&self, observed: &[u32]) -> Verdict {
        if observed.is_empty() {
            return Verdict::Clean;
        }
        // A monitor M lies in B⁻[v] iff v = M or v is a successor of M.
        let mut candidates: Vec<u32> = observed
            .iter()
            .flat_map(|&m| std::iter::once(m).chain(self.successors(m)))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();

        let mut scored: Vec<(Candidate, u32)> = candidates
            .into_iter()
            .map(|v| {
                let expected = self.expected(v);
                let matched = intersection_size(&expected, observed);
                let mismatch = expected.len() + observed.len() - 2 * matched;
                (
                    Candidate {
                        node: self.graph.word_of(v),
                        matched,
                        mismatch,
                    },
                    v,
                )
            })
            .collect();
        scored.sort_by(|(a, va), (b, vb)| {
            b.matched
                .cmp(&a.matched)
                .then(a.mismatch.cmp(&b.mismatch))
                .then(va.cmp(vb))
        });

        let perfect: Vec<&(Candidate, u32)> =
            scored.iter().filter(|(c, _)| c.mismatch == 0).collect();
        if perfect.len() == 1 {
            return Verdict::Exact {
                node: perfect[0].0.node.clone(),
            };
        }
        Verdict::Ranked {
            candidates: scored.into_iter().map(|(c, _)| c).collect(),
        }
    }

    /// Out-neighbours of `m` under the graph's ball convention: CSR
    /// successors (they equal the undirected neighbours on the
    /// undirected graph, and left shifts on the directed one).
    fn successors(&self, m: u32) -> Vec<u32> {
        self.graph.neighbors(m).to_vec()
    }
}

fn intersection_size(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Drives a saved trace (or any event sequence) through a
/// [`MonitorSet`] and returns it primed for decoding. Convenience for
/// `dbr localize` and tests.
pub fn replay<'a>(
    mut monitors: MonitorSet,
    events: impl IntoIterator<Item = &'a NetEvent>,
) -> MonitorSet {
    for event in events {
        monitors.record(event);
    }
    monitors
}

pub use crate::metrics::numbered_path;

#[cfg(test)]
mod tests {
    use super::*;
    use debruijn_core::DeBruijn;

    fn undirected(d: u8, k: usize) -> DebruijnGraph {
        DebruijnGraph::undirected(DeBruijn::new(d, k).unwrap()).unwrap()
    }

    fn directed(d: u8, k: usize) -> DebruijnGraph {
        DebruijnGraph::directed(DeBruijn::new(d, k).unwrap()).unwrap()
    }

    /// The synthetic event stream of a fault at `f`: one message
    /// forwarded `u -> f` and dropped there per in-neighbour `u`, plus
    /// one message originating (and dying) at `f` itself.
    fn fault_stream(graph: &DebruijnGraph, f: u32) -> Vec<NetEvent> {
        let fw = graph.word_of(f);
        let mut events = Vec::new();
        let ball = identifying::closed_in_ball(graph, f);
        let mut message = 0usize;
        for &u in ball.iter().filter(|&&u| u != f) {
            let uw = graph.word_of(u);
            events.push(NetEvent::Inject {
                time: 0,
                message,
                source: uw.clone(),
                destination: fw.clone(),
                route_len: 1,
                shortest: 1,
            });
            events.push(NetEvent::Forward {
                time: 1,
                message,
                hop: 0,
                from: uw.clone(),
                to: fw.clone(),
                departs: 1,
                arrives: 2,
                queue_wait: 0,
                queue_depth: 0,
            });
            events.push(NetEvent::Drop {
                time: 2,
                message,
                reason: DropReason::FaultyNode,
                at: fw.clone(),
                upstream: Some(uw),
            });
            message += 1;
        }
        events.push(NetEvent::Inject {
            time: 3,
            message,
            source: fw.clone(),
            destination: fw.clone(),
            route_len: 0,
            shortest: 0,
        });
        events.push(NetEvent::Drop {
            time: 3,
            message,
            reason: DropReason::FaultySource,
            at: fw,
            upstream: None,
        });
        events
    }

    /// The acceptance sweep: on DG(2,k), k ≤ 10, directed and
    /// undirected, every single injected fault decodes exactly from
    /// the monitor signature alone.
    #[test]
    fn every_single_fault_localizes_exactly_dg2k() {
        for k in 3..=10 {
            for graph in [directed(2, k), undirected(2, k)] {
                let template = MonitorSet::identifying(graph.clone()).unwrap();
                let code = template.monitors().to_vec();
                for f in graph.nodes() {
                    let monitors = replay(
                        MonitorSet::on_code(graph.clone(), Placement::Identifying, code.clone()),
                        &fault_stream(&graph, f),
                    );
                    let verdict = monitors.localize();
                    assert_eq!(
                        verdict,
                        Verdict::Exact {
                            node: graph.word_of(f)
                        },
                        "k={k} mode={:?} fault={f}",
                        graph.mode()
                    );
                }
            }
        }
    }

    #[test]
    fn observed_signature_is_the_closed_in_ball_intersection() {
        let graph = directed(2, 6);
        let monitors = MonitorSet::identifying(graph.clone()).unwrap();
        let code = monitors.monitors().to_vec();
        for f in [0u32, 17, 40, 63] {
            let set = replay(
                MonitorSet::on_code(graph.clone(), Placement::Identifying, code.clone()),
                &fault_stream(&graph, f),
            );
            let expected: Vec<u32> = identifying::closed_in_ball(&graph, f)
                .into_iter()
                .filter(|u| code.binary_search(u).is_ok())
                .collect();
            assert_eq!(set.observed(), expected, "fault {f}");
        }
    }

    #[test]
    fn all_placement_also_localizes_exactly() {
        let graph = undirected(2, 5);
        for f in [3u32, 12, 31] {
            let monitors = replay(MonitorSet::all(graph.clone()), &fault_stream(&graph, f));
            assert_eq!(
                monitors.localize(),
                Verdict::Exact {
                    node: graph.word_of(f)
                }
            );
        }
    }

    #[test]
    fn clean_runs_decode_clean() {
        let graph = undirected(2, 4);
        let monitors = MonitorSet::identifying(graph).unwrap();
        assert_eq!(monitors.localize(), Verdict::Clean);
        assert_eq!(monitors.observed(), Vec::<u32>::new());
    }

    #[test]
    fn partial_signatures_rank_the_true_fault_first() {
        let graph = undirected(2, 6);
        let monitors = MonitorSet::identifying(graph.clone()).unwrap();
        let code = monitors.monitors().to_vec();
        let f = 23u32;
        // Drop the stream's first in-ball witness: the signature is now
        // a strict subset, so the decode degrades to a ranked verdict
        // (or stays exact if the remainder is still unique).
        let mut events = fault_stream(&graph, f);
        events.drain(0..3);
        let set = replay(
            MonitorSet::on_code(graph.clone(), Placement::Identifying, code),
            &events,
        );
        match set.localize() {
            Verdict::Exact { node } => assert_eq!(node, graph.word_of(f)),
            Verdict::Ranked { candidates } => {
                assert_eq!(candidates[0].node, graph.word_of(f), "true fault not first");
            }
            Verdict::Clean => panic!("signature lost entirely"),
        }
    }

    #[test]
    fn healthy_traffic_leaves_monitors_clean() {
        let graph = undirected(2, 4);
        let mut monitors = MonitorSet::identifying(graph.clone()).unwrap();
        let x = graph.word_of(1);
        let y = graph.word_of(2);
        monitors.record(&NetEvent::Inject {
            time: 0,
            message: 9,
            source: x.clone(),
            destination: y.clone(),
            route_len: 1,
            shortest: 1,
        });
        monitors.record(&NetEvent::Forward {
            time: 1,
            message: 9,
            hop: 0,
            from: x,
            to: y,
            departs: 1,
            arrives: 2,
            queue_wait: 0,
            queue_depth: 0,
        });
        monitors.record(&NetEvent::Deliver {
            time: 2,
            message: 9,
            hops: 1,
            latency: 2,
            shortest: 1,
        });
        assert_eq!(monitors.evidence_len(), 0);
        assert_eq!(monitors.localize(), Verdict::Clean);
    }

    /// The subscription contract behind the overhead gate: by default a
    /// monitor set asks only for drops, so the engines never construct
    /// the hot-path inject/forward/deliver events; queue attribution
    /// widens it to forwards.
    #[test]
    fn monitors_subscribe_to_drops_only_unless_queue_attribution_is_on() {
        let graph = undirected(2, 4);
        let monitors = MonitorSet::identifying(graph.clone()).unwrap();
        assert!(monitors.enabled());
        assert!(monitors.wants(EventClass::Drop));
        for class in [
            EventClass::Inject,
            EventClass::Wildcard,
            EventClass::Forward,
            EventClass::Reroute,
            EventClass::Deliver,
        ] {
            assert!(!monitors.wants(class), "{class:?}");
        }
        let with_queue = MonitorSet::all(graph).with_config(MonitorConfig {
            threshold: 1,
            queue_depth_limit: Some(4),
        });
        assert!(with_queue.wants(EventClass::Drop));
        assert!(with_queue.wants(EventClass::Forward));
        assert!(!with_queue.wants(EventClass::Deliver));
    }

    #[test]
    fn queue_breaches_attribute_to_the_transmitter_when_enabled() {
        let graph = undirected(2, 4);
        let config = MonitorConfig {
            threshold: 1,
            queue_depth_limit: Some(2),
        };
        let mut monitors = MonitorSet::all(graph.clone()).with_config(config);
        let from = graph.word_of(5);
        let to = graph.word_of(10);
        monitors.record(&NetEvent::Forward {
            time: 0,
            message: 0,
            hop: 0,
            from: from.clone(),
            to,
            departs: 0,
            arrives: 1,
            queue_wait: 0,
            queue_depth: 3,
        });
        assert_eq!(monitors.observed(), vec![graph.rank_of(&from)]);
        let readings = monitors.readings();
        assert_eq!(readings.len(), 1);
        assert_eq!(readings[0].by_kind, vec![("queue-breach", 1)]);
        assert_eq!(monitors.evidence_len(), 1);
    }

    #[test]
    fn threshold_gates_the_signature_bits() {
        let graph = undirected(2, 5);
        let code = MonitorSet::identifying(graph.clone())
            .unwrap()
            .monitors()
            .to_vec();
        let f = 11u32;
        // Each upstream witness fires once; the faulty node's own bit
        // accumulates one self-drop per lost message. A threshold of 2
        // therefore gates out every bit except the self bit...
        let monitors = replay(
            MonitorSet::on_code(graph.clone(), Placement::Identifying, code.clone()).with_config(
                MonitorConfig {
                    threshold: 2,
                    queue_depth_limit: None,
                },
            ),
            &fault_stream(&graph, f),
        );
        let self_bit: Vec<u32> = [f]
            .into_iter()
            .filter(|v| code.binary_search(v).is_ok())
            .collect();
        assert_eq!(monitors.observed(), self_bit);
        // ...and an unreachable threshold blanks the signature.
        let stream = fault_stream(&graph, f);
        let monitors = replay(
            MonitorSet::on_code(graph, Placement::Identifying, code).with_config(MonitorConfig {
                threshold: 1_000,
                queue_depth_limit: None,
            }),
            &stream,
        );
        assert_eq!(monitors.localize(), Verdict::Clean);
    }

    #[test]
    fn export_publishes_the_monitor_families() {
        let graph = undirected(2, 5);
        let set = replay(
            MonitorSet::identifying(graph.clone()).unwrap(),
            &fault_stream(&graph, 7),
        );
        let registry = MetricsRegistry::new();
        let verdict = set.export(&registry);
        assert!(matches!(verdict, Verdict::Exact { .. }));
        let text = registry.snapshot().render();
        assert!(
            text.contains("dbr_monitor_nodes{placement=\"identifying\"}"),
            "{text}"
        );
        assert!(
            text.contains("dbr_monitor_signature_bits{monitor="),
            "{text}"
        );
        assert!(
            text.contains("dbr_monitor_decode_total{verdict=\"exact\"} 1"),
            "{text}"
        );
        assert!(text.contains("dbr_monitor_decode_latency_ns"), "{text}");
    }

    #[test]
    fn evidence_dump_round_trips_through_the_trace_parser() {
        let dir = std::env::temp_dir().join(format!("dbr-monitor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("evidence.jsonl");
        let graph = undirected(2, 5);
        let set = replay(
            MonitorSet::identifying(graph.clone()).unwrap(),
            &fault_stream(&graph, 19),
        );
        assert!(set.evidence_len() > 0);
        set.dump_evidence(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), set.evidence_len());
        for line in text.lines() {
            crate::record::parse_event(2, line).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evidence_window_is_bounded() {
        let graph = undirected(2, 4);
        let mut monitors = MonitorSet::all(graph.clone());
        let f = graph.word_of(3);
        for message in 0..EVIDENCE_CAPACITY + 10 {
            monitors.record(&NetEvent::Inject {
                time: 0,
                message,
                source: f.clone(),
                destination: f.clone(),
                route_len: 0,
                shortest: 0,
            });
            monitors.record(&NetEvent::Drop {
                time: 1,
                message,
                reason: DropReason::FaultySource,
                at: f.clone(),
                upstream: None,
            });
        }
        assert_eq!(monitors.evidence_len(), EVIDENCE_CAPACITY);
    }

    /// End-to-end sweep on the sharded simulator: for every possible
    /// faulty node, inject one message from each in-ball witness (plus
    /// background traffic), run the real engine with the fault, and
    /// demand an exact verdict from the monitor signature alone —
    /// directed balls under Algorithm 1, undirected under Algorithm 2.
    #[test]
    fn sharded_sim_fault_sweep_localizes_every_node_dg26() {
        use crate::{Injection, SimConfig};
        let space = DeBruijn::new(2, 6).unwrap();
        for (router, graph) in [
            (crate::RouterKind::Algorithm1, directed(2, 6)),
            (crate::RouterKind::Algorithm2, undirected(2, 6)),
        ] {
            let code = MonitorSet::identifying(graph.clone())
                .unwrap()
                .monitors()
                .to_vec();
            let background = crate::workload::uniform_random(space, 40, 99);
            for f in graph.nodes() {
                let fw = graph.word_of(f);
                let mut traffic: Vec<Injection> = identifying::closed_in_ball(&graph, f)
                    .into_iter()
                    .filter(|&u| u != f)
                    .map(|u| Injection {
                        time: 0,
                        source: graph.word_of(u),
                        destination: fw.clone(),
                    })
                    .collect();
                traffic.push(Injection {
                    time: 0,
                    source: fw.clone(),
                    destination: graph.word_of((f + 1) % graph.node_count() as u32),
                });
                traffic.extend(background.iter().cloned());
                let config = SimConfig {
                    router,
                    ..SimConfig::default()
                };
                let mut monitors =
                    MonitorSet::on_code(graph.clone(), Placement::Identifying, code.clone());
                let sim = crate::shard::ShardedSimulation::new(space, config, 2)
                    .unwrap()
                    .with_faults(vec![fw.clone()])
                    .unwrap();
                sim.run_recorded(&traffic, &mut monitors);
                assert_eq!(
                    monitors.localize(),
                    Verdict::Exact { node: fw },
                    "router={router:?} fault={f}"
                );
            }
        }
    }
}
