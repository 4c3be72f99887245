//! The discrete-event simulation engine.
//!
//! Store-and-forward semantics: each directed link is a FIFO server with a
//! `service` time (occupancy per message) and a `latency` (propagation).
//! A forwarding node pops the first routing step, resolves any wildcard
//! under the configured [`WildcardPolicy`], and hands the message to the
//! selected link; the message arrives at the neighbor when the link has
//! served it. Everything is deterministic given [`SimConfig::seed`].
//!
//! Every run drives a [`Recorder`] (see [`crate::record`]): [`Simulation::run`]
//! uses the free [`NullRecorder`], and [`Simulation::run_recorded`] accepts
//! any sink.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::error::Error as StdError;
use std::fmt;

use debruijn_core::rng::SplitMix64;
use debruijn_core::routing::{RouteCache, RoutingScratch};
use debruijn_core::{DeBruijn, Digit, RoutePath, ShiftKind, Word};
use debruijn_graph::{fault, DebruijnGraph, GraphError};

use crate::message::Message;
use crate::policy::WildcardPolicy;
use crate::record::{DropReason, NetEvent, NullRecorder, Observe, Recorder};
use crate::router::RouterKind;
use crate::stats::SimReport;

/// Timing parameters of every link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Propagation delay added after service, in ticks.
    pub latency: u64,
    /// Occupancy per message: the link serves one message per `service`
    /// ticks.
    pub service: u64,
}

impl Default for LinkParams {
    fn default() -> Self {
        Self {
            latency: 1,
            service: 1,
        }
    }
}

/// What happens when a route runs into a faulty node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultHandling {
    /// The message is lost at the hop into the faulty node (no global
    /// fault knowledge).
    #[default]
    Drop,
    /// Sources know the fault set and compute fault-avoiding shortest
    /// routes (BFS on the surviving graph); messages are only lost if the
    /// destination itself is faulty or the fault set cuts the network.
    SourceReroute,
}

/// Where routes are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ForwardingMode {
    /// §3's protocol: the source computes the whole routing path; each
    /// hop pops one `(a, b)` pair.
    #[default]
    SourceRouted,
    /// Distributed self-routing: the message carries only its
    /// destination; every node recomputes a shortest route *from itself*
    /// and takes its first step. Hop counts are identical to source
    /// routing (the first step of a shortest path reduces the distance by
    /// one), but the route computation burden moves into the network —
    /// an ablation of the paper's source-routed design. Combined with
    /// [`FaultHandling::SourceReroute`] the recomputation happens per hop,
    /// giving distributed fault avoidance.
    HopByHop,
}

/// Simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Which algorithm sources use to fill the routing-path field.
    pub router: RouterKind,
    /// How forwarding nodes resolve wildcard steps.
    pub policy: WildcardPolicy,
    /// Link timing.
    pub link: LinkParams,
    /// Fault-handling mode.
    pub fault_handling: FaultHandling,
    /// Where routes are computed.
    pub forwarding: ForwardingMode,
    /// Seed for the (deterministic) random wildcard policy.
    pub seed: u64,
    /// Capacity of the per-run `(source, destination) → route` cache
    /// (clock eviction; 0 disables). Repeated traffic between the same
    /// endpoints skips the route computation; cached routes are identical
    /// to computed ones, so results never depend on this knob.
    pub route_cache: usize,
    /// Worker threads for the source-route precomputation pass (1 =
    /// inline, 0 = available parallelism). Only deterministic routers are
    /// fanned out ([`RouterKind::Multipath`] draws from the seeded RNG and
    /// always computes inline); reports are byte-identical for every
    /// thread count.
    pub threads: usize,
    /// Hop budget per message: a message still in flight after `ttl`
    /// hops is dropped with [`DropReason::Ttl`]. `0` (the default)
    /// disables the budget. Optimal routes need at most `k` hops, so a
    /// `ttl >= k` never fires on healthy source-routed traffic.
    pub ttl: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            router: RouterKind::default(),
            policy: WildcardPolicy::default(),
            link: LinkParams::default(),
            fault_handling: FaultHandling::default(),
            forwarding: ForwardingMode::default(),
            seed: 0xDEB1,
            route_cache: 1024,
            threads: 1,
            ttl: 0,
        }
    }
}

/// One traffic demand: inject a message at `time` from `source` to
/// `destination`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Injection tick.
    pub time: u64,
    /// Source address.
    pub source: Word,
    /// Destination address.
    pub destination: Word,
}

/// Errors configuring a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetError {
    /// A word does not belong to the simulated space.
    ForeignWord {
        /// Display form of the offending word.
        word: String,
    },
    /// Source rerouting requires the explicit graph, which is too large.
    Graph(GraphError),
    /// The requested configuration is outside what this engine supports
    /// (e.g. the sharded simulator with a non-optimal router).
    Unsupported {
        /// Human-readable description of the unsupported combination.
        what: String,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::ForeignWord { word } => {
                write!(f, "word {word} is not a vertex of the simulated network")
            }
            NetError::Graph(e) => write!(f, "cannot materialize reroute graph: {e}"),
            NetError::Unsupported { what } => {
                write!(f, "unsupported configuration: {what}")
            }
        }
    }
}

impl StdError for NetError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            NetError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for NetError {
    fn from(e: GraphError) -> Self {
        NetError::Graph(e)
    }
}

/// A configured de Bruijn network simulation.
///
/// See the crate docs for an end-to-end example.
#[derive(Debug)]
pub struct Simulation {
    space: DeBruijn,
    config: SimConfig,
    faults: HashSet<Word>,
    /// Faulty directed links, by endpoint ranks.
    link_faults: HashSet<(u128, u128)>,
    /// The same faulty links as words (for reroute queries).
    link_fault_words: Vec<(Word, Word)>,
    /// Materialized graph for source rerouting (built only when needed).
    reroute_graph: Option<DebruijnGraph>,
}

impl Simulation {
    /// Creates a fault-free simulation of `DN(d,k)`.
    ///
    /// # Errors
    ///
    /// Currently infallible, but returns `Result` so configurations that
    /// need materialized state (see [`Simulation::with_faults`]) share the
    /// signature.
    pub fn new(space: DeBruijn, config: SimConfig) -> Result<Self, NetError> {
        Ok(Self {
            space,
            config,
            faults: HashSet::new(),
            link_faults: HashSet::new(),
            link_fault_words: Vec::new(),
            reroute_graph: None,
        })
    }

    /// Declares the given nodes faulty.
    ///
    /// Under [`FaultHandling::SourceReroute`] this materializes the
    /// explicit graph for BFS rerouting.
    ///
    /// # Errors
    ///
    /// Returns an error if a fault word is not in the simulated space, or
    /// if rerouting is requested and the graph cannot be materialized.
    pub fn with_faults(mut self, faults: Vec<Word>) -> Result<Self, NetError> {
        for f in &faults {
            if !self.space.contains(f) {
                return Err(NetError::ForeignWord {
                    word: f.to_string(),
                });
            }
        }
        self.faults = faults.into_iter().collect();
        self.materialize_if_rerouting()?;
        Ok(self)
    }

    /// Declares the given **directed links** faulty: a message handed to
    /// a dead link is lost (under [`FaultHandling::Drop`]) or routed
    /// around at the source (under [`FaultHandling::SourceReroute`]).
    /// For a fully dead bidirectional link, list both directions.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is not in the simulated space, or
    /// if rerouting is requested and the graph cannot be materialized.
    pub fn with_link_faults(mut self, links: Vec<(Word, Word)>) -> Result<Self, NetError> {
        for (a, b) in &links {
            if !self.space.contains(a) {
                return Err(NetError::ForeignWord {
                    word: a.to_string(),
                });
            }
            if !self.space.contains(b) {
                return Err(NetError::ForeignWord {
                    word: b.to_string(),
                });
            }
        }
        self.link_faults = links.iter().map(|(a, b)| (a.rank(), b.rank())).collect();
        self.link_fault_words = links;
        self.materialize_if_rerouting()?;
        Ok(self)
    }

    fn materialize_if_rerouting(&mut self) -> Result<(), NetError> {
        if self.config.fault_handling == FaultHandling::SourceReroute
            && (!self.faults.is_empty() || !self.link_faults.is_empty())
            && self.reroute_graph.is_none()
        {
            let graph = if self.config.router.needs_bidirectional() {
                DebruijnGraph::undirected(self.space)?
            } else {
                DebruijnGraph::directed(self.space)?
            };
            self.reroute_graph = Some(graph);
        }
        Ok(())
    }

    /// The simulated parameter space.
    pub fn space(&self) -> DeBruijn {
        self.space
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Runs the simulation over the given traffic, returning aggregate
    /// statistics. Deterministic for a fixed config and traffic.
    ///
    /// # Panics
    ///
    /// Panics if an injection references a word outside the simulated
    /// space.
    pub fn run(&self, traffic: &[Injection]) -> SimReport {
        self.run_recorded(traffic, &mut NullRecorder)
    }

    /// Like [`Simulation::run`], but streams every [`NetEvent`] into the
    /// given [`Recorder`] as it happens. With the default
    /// [`NullRecorder`] this is exactly [`Simulation::run`]; pass an
    /// [`InMemoryRecorder`](crate::record::InMemoryRecorder) for
    /// histograms and counters or a
    /// [`JsonlRecorder`](crate::record::JsonlRecorder) for an event log.
    ///
    /// # Panics
    ///
    /// Panics if an injection references a word outside the simulated
    /// space.
    pub fn run_recorded(&self, traffic: &[Injection], recorder: &mut dyn Recorder) -> SimReport {
        self.run_impl(traffic, recorder)
    }

    fn run_impl(&self, traffic: &[Injection], recorder: &mut dyn Recorder) -> SimReport {
        let mut report = SimReport {
            total_links: self.count_links(),
            ..SimReport::default()
        };
        let mut rng = SplitMix64::new(self.config.seed);
        let observed = Observe::of(recorder);

        // Per-link FIFO state: next time the link is free.
        let mut link_free: HashMap<(u128, u128), u64> = HashMap::new();
        // Round-robin counters per node.
        let mut rr: HashMap<u128, u8> = HashMap::new();

        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut pending: HashMap<u64, Flight> = HashMap::new();
        let mut seq: u64 = 0;

        // Route-computation state for the serial path: a bounded cache for
        // repeated (source, destination) pairs and reusable kernel buffers.
        let mut cache = RouteCache::new(self.config.route_cache);
        let mut scratch = RoutingScratch::new();
        let fault_free = self.faults.is_empty() && self.link_faults.is_empty();
        let reroute_mode =
            !fault_free && self.config.fault_handling == FaultHandling::SourceReroute;

        // With several worker threads and a deterministic router, compute
        // all source routes up front in parallel. Routes are pure functions
        // of the endpoints (the RNG is untouched here), so the merge-in-
        // injection-order output is byte-identical to the serial path.
        let mut precomputed: Option<Vec<Option<RoutePath>>> = if self.config.threads != 1
            && self.config.forwarding == ForwardingMode::SourceRouted
            && self.config.router != RouterKind::Multipath
        {
            Some(debruijn_parallel::map_range_with(
                self.config.threads,
                traffic.len(),
                RoutingScratch::new,
                |scratch, i| {
                    self.deterministic_route(&traffic[i].source, &traffic[i].destination, scratch)
                },
            ))
        } else {
            None
        };

        for (index, inj) in traffic.iter().enumerate() {
            assert!(
                self.space.contains(&inj.source) && self.space.contains(&inj.destination),
                "injection endpoints must be vertices of the simulated space"
            );
            report.injected += 1;
            if self.faults.contains(&inj.source) {
                drop_message(
                    &mut report,
                    recorder,
                    observed,
                    inj.time,
                    index,
                    DropReason::FaultySource,
                    &inj.source,
                    None,
                );
                continue;
            }
            let mut rerouted = false;
            let route = match self.config.forwarding {
                ForwardingMode::HopByHop => RoutePath::empty(),
                ForwardingMode::SourceRouted => {
                    let r = match precomputed.as_mut() {
                        Some(routes) => {
                            rerouted = reroute_mode;
                            routes[index].take()
                        }
                        None => self.initial_route(
                            &inj.source,
                            &inj.destination,
                            &mut rng,
                            &mut rerouted,
                            &mut cache,
                            &mut scratch,
                        ),
                    };
                    match r {
                        Some(r) => r,
                        None => {
                            drop_message(
                                &mut report,
                                recorder,
                                observed,
                                inj.time,
                                index,
                                DropReason::NoRoute,
                                &inj.source,
                                None,
                            );
                            continue;
                        }
                    }
                }
            };
            // The fault-free shortest distance is only needed for
            // observability (the stretch histogram of inject/deliver
            // events); skip the distance computation when nobody
            // listens to either class.
            let shortest = if observed.inject || observed.deliver {
                if self.config.router.needs_bidirectional() {
                    debruijn_core::distance::undirected::distance(&inj.source, &inj.destination)
                } else {
                    debruijn_core::distance::directed::distance(&inj.source, &inj.destination)
                }
            } else {
                0
            };
            if observed.inject {
                recorder.record(&NetEvent::Inject {
                    time: inj.time,
                    message: index,
                    source: inj.source.clone(),
                    destination: inj.destination.clone(),
                    route_len: route.steps().len(),
                    shortest,
                });
            }
            if rerouted && observed.reroute {
                recorder.record(&NetEvent::Reroute {
                    time: inj.time,
                    message: index,
                    at: inj.source.clone(),
                });
            }
            let msg = Message::data(inj.source.clone(), inj.destination.clone(), route);
            let flight = Flight {
                index,
                at: inj.source.clone(),
                prev: None,
                msg,
                injected_at: inj.time,
                hops: 0,
                shortest,
            };
            pending.insert(seq, flight);
            heap.push(Reverse((inj.time, seq)));
            seq += 1;
        }

        while let Some(Reverse((now, id))) = heap.pop() {
            let flight = pending.remove(&id).expect("event for live flight");
            let Flight {
                index,
                at,
                prev,
                msg,
                injected_at,
                hops,
                shortest,
            } = flight;

            if self.faults.contains(&at) {
                drop_message(
                    &mut report,
                    recorder,
                    observed,
                    now,
                    index,
                    DropReason::FaultyNode,
                    &at,
                    prev.as_ref(),
                );
                continue;
            }
            let arrived = match self.config.forwarding {
                ForwardingMode::SourceRouted => msg.is_arrived(),
                ForwardingMode::HopByHop => at == msg.destination,
            };
            if arrived {
                debug_assert_eq!(at, msg.destination, "route must end at destination");
                report.delivered += 1;
                report.total_hops += hops as u64;
                *report.hop_histogram.entry(hops).or_insert(0) += 1;
                let latency = now - injected_at;
                report.latency_total += latency;
                report.latency_max = report.latency_max.max(latency);
                report.makespan = report.makespan.max(now);
                if observed.deliver {
                    recorder.record(&NetEvent::Deliver {
                        time: now,
                        message: index,
                        hops,
                        latency,
                        shortest,
                    });
                }
                continue;
            }
            if self.config.ttl > 0 && hops >= self.config.ttl {
                drop_message(
                    &mut report,
                    recorder,
                    observed,
                    now,
                    index,
                    DropReason::Ttl,
                    &at,
                    prev.as_ref(),
                );
                continue;
            }

            let (step, msg) = match self.config.forwarding {
                ForwardingMode::SourceRouted => {
                    let (popped, rest) = msg.pop_step().expect("non-empty route");
                    (popped, rest)
                }
                ForwardingMode::HopByHop => {
                    // Recompute a shortest (possibly fault-avoiding) route
                    // from here and take only its first step.
                    let mut rerouted = false;
                    match self.initial_route(
                        &at,
                        &msg.destination,
                        &mut rng,
                        &mut rerouted,
                        &mut cache,
                        &mut scratch,
                    ) {
                        Some(route) if !route.is_empty() => {
                            if rerouted && observed.reroute {
                                recorder.record(&NetEvent::Reroute {
                                    time: now,
                                    message: index,
                                    at: at.clone(),
                                });
                            }
                            let first = route.steps()[0];
                            (
                                crate::message::PoppedStep {
                                    shift: first.shift,
                                    digit: first.digit,
                                },
                                msg,
                            )
                        }
                        _ => {
                            // Destination unreachable from here.
                            drop_message(
                                &mut report,
                                recorder,
                                observed,
                                now,
                                index,
                                DropReason::NoRoute,
                                &at,
                                prev.as_ref(),
                            );
                            continue;
                        }
                    }
                }
            };
            let was_wildcard = matches!(step.digit, Digit::Any);
            let digit =
                self.resolve_digit(&at, step.shift, step.digit, &link_free, &mut rr, &mut rng);
            if was_wildcard && observed.wildcard {
                recorder.record(&NetEvent::WildcardResolved {
                    time: now,
                    message: index,
                    at: at.clone(),
                    shift: step.shift,
                    digit,
                    policy: self.config.policy,
                });
            }
            let next = match step.shift {
                ShiftKind::Left => at.shift_left(digit),
                ShiftKind::Right => at.shift_right(digit),
            };

            let key = (at.rank(), next.rank());
            if self.link_faults.contains(&key) {
                // The selected link is down: the message is lost in
                // transit (no retransmission model).
                drop_message(
                    &mut report,
                    recorder,
                    observed,
                    now,
                    index,
                    DropReason::DeadLink,
                    &at,
                    prev.as_ref(),
                );
                continue;
            }
            let free = link_free.entry(key).or_insert(0);
            let depart = now.max(*free);
            *free = depart + self.config.link.service;
            let arrive = depart + self.config.link.service + self.config.link.latency;
            *report.link_loads.entry(key).or_insert(0) += 1;
            let wait = depart - now;
            report.total_queue_wait += wait;
            report.max_queue_wait = report.max_queue_wait.max(wait);
            if observed.forward {
                recorder.record(&NetEvent::Forward {
                    time: now,
                    message: index,
                    hop: hops,
                    from: at.clone(),
                    to: next.clone(),
                    departs: depart,
                    arrives: arrive,
                    queue_wait: wait,
                    // Each queued message occupies the link for one
                    // service interval, so the wait divided by the
                    // service time counts the messages ahead.
                    queue_depth: wait.div_ceil(self.config.link.service.max(1)) as usize,
                });
            }

            let flight = Flight {
                index,
                at: next,
                // Only drop events consume the upstream pointer; keep
                // the flight lean for everyone else.
                prev: observed.drop.then_some(at),
                msg,
                injected_at,
                hops: hops + 1,
                shortest,
            };
            pending.insert(seq, flight);
            heap.push(Reverse((arrive, seq)));
            seq += 1;
        }

        report
    }

    /// Computes the route placed in a fresh message's routing-path field.
    /// Sets `rerouted` when the route came from fault-avoiding BFS rather
    /// than a label algorithm. Label-algorithm routes go through the
    /// bounded cache; the multipath RNG draw and the fault-avoiding BFS
    /// bypass it.
    fn initial_route(
        &self,
        x: &Word,
        y: &Word,
        rng: &mut SplitMix64,
        rerouted: &mut bool,
        cache: &mut RouteCache,
        scratch: &mut RoutingScratch,
    ) -> Option<RoutePath> {
        let fault_free = self.faults.is_empty() && self.link_faults.is_empty();
        if fault_free || self.config.fault_handling == FaultHandling::Drop {
            if self.config.router == RouterKind::Multipath && x != y {
                let routes = debruijn_core::routing::all_shortest_routes(x, y);
                let pick = rng.below_usize(routes.len());
                return Some(routes[pick].clone());
            }
            return Some(cache.get_or_compute(x, y, |x, y| {
                let mut out = RoutePath::empty();
                self.config.router.route_into(x, y, scratch, &mut out);
                out
            }));
        }
        *rerouted = true;
        self.reroute(x, y)
    }

    /// The route an RNG-free router computes for `(x, y)` — the per-pair
    /// work of the parallel precomputation pass. Matches
    /// [`Simulation::initial_route`] exactly for every non-multipath
    /// configuration.
    fn deterministic_route(
        &self,
        x: &Word,
        y: &Word,
        scratch: &mut RoutingScratch,
    ) -> Option<RoutePath> {
        let fault_free = self.faults.is_empty() && self.link_faults.is_empty();
        if fault_free || self.config.fault_handling == FaultHandling::Drop {
            let mut out = RoutePath::empty();
            self.config.router.route_into(x, y, scratch, &mut out);
            return Some(out);
        }
        self.reroute(x, y)
    }

    /// Fault-avoiding BFS route on the surviving graph.
    fn reroute(&self, x: &Word, y: &Word) -> Option<RoutePath> {
        let graph = self
            .reroute_graph
            .as_ref()
            .expect("reroute graph materialized by with_faults/with_link_faults");
        let faults: Vec<Word> = self.faults.iter().cloned().collect();
        if self.link_fault_words.is_empty() {
            fault::route_avoiding(graph, x, y, &faults)
        } else {
            fault::route_avoiding_full(graph, x, y, &faults, &self.link_fault_words)
        }
    }

    /// Resolves the digit of one step under the wildcard policy.
    fn resolve_digit(
        &self,
        at: &Word,
        shift: ShiftKind,
        digit: Digit,
        link_free: &HashMap<(u128, u128), u64>,
        rr: &mut HashMap<u128, u8>,
        rng: &mut SplitMix64,
    ) -> u8 {
        let d = self.space.d();
        match digit {
            Digit::Exact(b) => b,
            Digit::Any => match self.config.policy {
                WildcardPolicy::Zero => 0,
                WildcardPolicy::Random => rng.digit(d),
                WildcardPolicy::RoundRobin => {
                    let counter = rr.entry(at.rank()).or_insert(0);
                    let b = *counter % d;
                    *counter = (*counter + 1) % d;
                    b
                }
                WildcardPolicy::LeastLoaded => {
                    // Pick the digit whose outgoing link frees earliest;
                    // ties break toward the smaller digit.
                    (0..d)
                        .min_by_key(|&b| {
                            let next = match shift {
                                ShiftKind::Left => at.shift_left(b),
                                ShiftKind::Right => at.shift_right(b),
                            };
                            link_free
                                .get(&(at.rank(), next.rank()))
                                .copied()
                                .unwrap_or(0)
                        })
                        .expect("d >= 2")
                }
            },
        }
    }

    /// Total number of directed links the configured network offers, or 0
    /// if the space is too large to enumerate cheaply.
    fn count_links(&self) -> usize {
        const ENUMERATION_LIMIT: usize = 1 << 16;
        let Some(n) = self.space.order_usize() else {
            return 0;
        };
        if n > ENUMERATION_LIMIT {
            return 0;
        }
        let bidir = self.config.router.needs_bidirectional();
        self.space
            .vertices()
            .map(|w| {
                if bidir {
                    // Full-duplex: each undirected edge counts once per
                    // direction.
                    self.space.undirected_neighbors(&w).len()
                } else {
                    self.space.directed_out_neighbors(&w).len()
                }
            })
            .sum()
    }
}

/// Books one message loss: the aggregate counters, the per-reason
/// breakdown, and (when observed) the [`NetEvent::Drop`] record with
/// the holding node `at` and the `upstream` node that forwarded there
/// (`None` for drops at the source).
#[allow(clippy::too_many_arguments)]
fn drop_message(
    report: &mut SimReport,
    recorder: &mut dyn Recorder,
    observed: Observe,
    time: u64,
    message: usize,
    reason: DropReason,
    at: &Word,
    upstream: Option<&Word>,
) {
    report.dropped += 1;
    *report.dropped_by_reason.entry(reason.name()).or_insert(0) += 1;
    if observed.drop {
        recorder.record(&NetEvent::Drop {
            time,
            message,
            reason,
            at: at.clone(),
            upstream: upstream.cloned(),
        });
    }
}

#[derive(Debug)]
struct Flight {
    /// Index of the message in the injected traffic (for tracing).
    index: usize,
    at: Word,
    /// The node that forwarded the message to `at` — the `upstream` of
    /// a drop event. Tracked only when drops are observed; `None` at
    /// the source.
    prev: Option<Word>,
    msg: Message,
    injected_at: u64,
    hops: usize,
    /// Fault-free shortest distance recorded at injection (0 when the
    /// run is unobserved).
    shortest: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::InMemoryRecorder;
    use crate::workload;
    use debruijn_core::directed_average_distance;

    fn space(d: u8, k: usize) -> DeBruijn {
        DeBruijn::new(d, k).unwrap()
    }

    fn sim(d: u8, k: usize, config: SimConfig) -> Simulation {
        Simulation::new(space(d, k), config).unwrap()
    }

    /// Runs `traffic` and returns the report with every recorded event.
    fn run_collected(s: &Simulation, traffic: &[Injection]) -> (SimReport, Vec<NetEvent>) {
        struct Collect(Vec<NetEvent>);
        impl Recorder for Collect {
            fn record(&mut self, event: &NetEvent) {
                self.0.push(event.clone());
            }
        }
        let mut collect = Collect(Vec::new());
        let report = s.run_recorded(traffic, &mut collect);
        (report, collect.0)
    }

    #[test]
    fn every_message_is_delivered_without_faults() {
        for router in RouterKind::all() {
            let s = sim(
                2,
                4,
                SimConfig {
                    router,
                    ..SimConfig::default()
                },
            );
            let traffic = workload::uniform_random(space(2, 4), 300, 42);
            let r = s.run(&traffic);
            assert_eq!(r.delivered, 300, "{}", router.name());
            assert_eq!(r.dropped, 0);
            assert_eq!(r.injected, 300);
        }
    }

    #[test]
    fn hop_counts_match_exact_distances() {
        // Under all-pairs traffic, mean hops must equal the exact average
        // distance over ordered pairs with x != y.
        let sp = space(2, 4);
        let traffic = workload::all_pairs(sp);
        let s = sim(
            2,
            4,
            SimConfig {
                router: RouterKind::Algorithm2,
                ..Default::default()
            },
        );
        let r = s.run(&traffic);
        let mut want_total = 0usize;
        let mut count = 0usize;
        for x in sp.vertices() {
            for y in sp.vertices() {
                if x != y {
                    want_total += debruijn_core::distance::undirected::distance(&x, &y);
                    count += 1;
                }
            }
        }
        assert_eq!(r.delivered, count);
        assert_eq!(r.total_hops, want_total as u64);
    }

    #[test]
    fn directed_router_matches_exact_average_and_approximates_eq5() {
        // All-pairs traffic with Algorithm 1: total hops equal the exact
        // sum of directed distances. The paper's Eq. (5) closed form
        // treats the overlap as geometric and is only an upper-bound
        // approximation (see EXPERIMENTS.md E1); check it is close.
        let sp = space(2, 5);
        let n = sp.order_usize().unwrap() as f64;
        let traffic = workload::all_pairs(sp);
        let s = sim(
            2,
            5,
            SimConfig {
                router: RouterKind::Algorithm1,
                ..Default::default()
            },
        );
        let r = s.run(&traffic);
        let mut exact_total = 0usize;
        for x in sp.vertices() {
            for y in sp.vertices() {
                exact_total += debruijn_core::distance::directed::distance(&x, &y);
            }
        }
        assert_eq!(r.total_hops, exact_total as u64);
        let exact_avg = exact_total as f64 / (n * n);
        let eq5 = directed_average_distance(2, 5);
        assert!(eq5 >= exact_avg, "Eq. 5 over-counts overlaps, never under");
        // For d = 2 the gap converges to ≈ 0.53 hops (see E1).
        assert!(
            eq5 - exact_avg < 0.6,
            "Eq. 5 gap too large: {eq5} vs {exact_avg}"
        );
    }

    #[test]
    fn trivial_router_always_takes_k_hops() {
        let sp = space(3, 3);
        let traffic = workload::uniform_random(sp, 100, 9);
        let s = sim(
            3,
            3,
            SimConfig {
                router: RouterKind::Trivial,
                ..Default::default()
            },
        );
        let r = s.run(&traffic);
        assert_eq!(r.delivered, 100);
        assert_eq!(r.hop_histogram.keys().copied().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn latency_reflects_link_parameters_in_light_traffic() {
        // One message at a time: latency = hops * (service + latency).
        let sp = space(2, 4);
        let link = LinkParams {
            latency: 3,
            service: 2,
        };
        let s = sim(
            2,
            4,
            SimConfig {
                link,
                router: RouterKind::Algorithm4,
                ..Default::default()
            },
        );
        let mut traffic = workload::uniform_random(sp, 50, 5);
        for (i, inj) in traffic.iter_mut().enumerate() {
            inj.time = (i as u64) * 1000; // no queueing
        }
        let r = s.run(&traffic);
        assert_eq!(r.delivered, 50);
        assert_eq!(r.latency_total, r.total_hops * 5);
    }

    #[test]
    fn reports_are_identical_for_any_thread_count() {
        // The parallel route-precompute pass must be invisible in the
        // results, for every router and even under faults (the BFS
        // reroutes are deterministic too).
        let sp = space(2, 5);
        let traffic = workload::uniform_random(sp, 400, 13);
        for router in RouterKind::all() {
            let mk = |threads| SimConfig {
                router,
                threads,
                ..Default::default()
            };
            let serial = sim(2, 5, mk(1)).run(&traffic);
            for threads in [0, 2, 8] {
                assert_eq!(serial, sim(2, 5, mk(threads)).run(&traffic), "{router:?}");
            }
        }
        let fault = sp.word_from_rank(9).unwrap();
        let mk = |threads| SimConfig {
            fault_handling: FaultHandling::SourceReroute,
            threads,
            ..Default::default()
        };
        let serial = sim(2, 5, mk(1))
            .with_faults(vec![fault.clone()])
            .unwrap()
            .run(&traffic);
        let parallel = sim(2, 5, mk(8))
            .with_faults(vec![fault])
            .unwrap()
            .run(&traffic);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn route_cache_capacity_does_not_change_results() {
        let sp = space(2, 5);
        let traffic = workload::uniform_random(sp, 400, 29);
        for forwarding in [ForwardingMode::SourceRouted, ForwardingMode::HopByHop] {
            let mk = |route_cache| SimConfig {
                forwarding,
                route_cache,
                ..Default::default()
            };
            let uncached = sim(2, 5, mk(0)).run(&traffic);
            for capacity in [1, 7, 4096] {
                assert_eq!(
                    uncached,
                    sim(2, 5, mk(capacity)).run(&traffic),
                    "{forwarding:?} capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let sp = space(2, 5);
        let traffic = workload::uniform_random(sp, 200, 11);
        let config = SimConfig {
            policy: WildcardPolicy::Random,
            router: RouterKind::Algorithm2,
            ..Default::default()
        };
        let a = sim(2, 5, config).run(&traffic);
        let b = sim(2, 5, config).run(&traffic);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_can_differ_under_random_policy() {
        let sp = space(2, 5);
        let traffic = workload::uniform_random(sp, 200, 11);
        let mk = |seed| SimConfig {
            policy: WildcardPolicy::Random,
            router: RouterKind::Algorithm2,
            seed,
            ..Default::default()
        };
        let a = sim(2, 5, mk(1)).run(&traffic);
        let b = sim(2, 5, mk(2)).run(&traffic);
        // Hop counts are identical (routes are the same length); link
        // loads will almost surely differ.
        assert_eq!(a.total_hops, b.total_hops);
        assert_ne!(a.link_loads, b.link_loads);
    }

    #[test]
    fn traced_run_matches_untraced_and_is_complete() {
        let sp = space(2, 4);
        let traffic = workload::uniform_random(sp, 150, 4);
        let s = sim(2, 4, SimConfig::default());
        let plain = s.run(&traffic);
        let (traced, trace) = run_collected(&s, &traffic);
        assert_eq!(plain, traced);
        // Every message gets exactly one terminal event.
        let mut terminal = vec![0usize; traffic.len()];
        for ev in &trace {
            if matches!(ev, NetEvent::Deliver { .. } | NetEvent::Drop { .. }) {
                terminal[ev.message()] += 1;
            }
        }
        assert!(
            terminal.iter().all(|&c| c == 1),
            "terminal events: {terminal:?}"
        );
        // Forward counts match the reported hop total.
        let forwards = trace
            .iter()
            .filter(|e| matches!(e, NetEvent::Forward { .. }))
            .count();
        assert_eq!(forwards as u64, traced.total_hops);
    }

    #[test]
    fn recorded_run_matches_unrecorded_report() {
        // The recorder must observe, never perturb: identical reports
        // with and without a sink, including under the random policy.
        let sp = space(2, 5);
        let traffic = workload::uniform_random(sp, 200, 21);
        let config = SimConfig {
            policy: WildcardPolicy::Random,
            router: RouterKind::Algorithm4,
            ..Default::default()
        };
        let s = sim(2, 5, config);
        let plain = s.run(&traffic);
        let mut metrics = InMemoryRecorder::new();
        let recorded = s.run_recorded(&traffic, &mut metrics);
        assert_eq!(plain, recorded);
        assert_eq!(metrics.delivered, recorded.delivered as u64);
        assert_eq!(metrics.hops.sum(), u128::from(recorded.total_hops));
        assert_eq!(metrics.latency.sum(), u128::from(recorded.latency_total));
        assert_eq!(
            metrics.queue_wait.sum(),
            u128::from(recorded.total_queue_wait)
        );
        assert_eq!(
            metrics.queue_wait.max().unwrap_or(0),
            recorded.max_queue_wait
        );
        assert_eq!(metrics.per_hop_latency.count(), recorded.total_hops);
    }

    #[test]
    fn recorded_hops_equal_distance_per_message() {
        // End to end: with an optimal router and no contention effects on
        // hop counts, every recorded delivery takes exactly
        // `distance::undirected::distance(source, destination)` hops —
        // the stretch histogram is identically zero.
        let sp = space(2, 5);
        let traffic = workload::uniform_random(sp, 300, 17);
        let s = sim(
            2,
            5,
            SimConfig {
                router: RouterKind::Algorithm4,
                ..Default::default()
            },
        );
        let mut metrics = InMemoryRecorder::new();
        let report = s.run_recorded(&traffic, &mut metrics);
        assert_eq!(report.delivered, 300);
        assert_eq!(metrics.stretch.count(), 300);
        assert_eq!(
            metrics.stretch.max(),
            Some(0),
            "optimal routes have zero stretch"
        );
        // And the trivial router pays the difference: stretch = k − D.
        let s = sim(
            2,
            5,
            SimConfig {
                router: RouterKind::Trivial,
                ..Default::default()
            },
        );
        let mut trivial = InMemoryRecorder::new();
        s.run_recorded(&traffic, &mut trivial);
        assert_eq!(trivial.hops.min(), Some(5), "trivial always walks k hops");
        assert!(trivial.stretch.max().unwrap() > 0);
    }

    #[test]
    fn wildcard_resolutions_are_recorded_per_policy_and_digit() {
        // Algorithm 4 emits wildcard steps whenever |route| < k; the
        // recorder must attribute each resolution to the configured
        // policy, and least-loaded must use every digit under symmetric
        // load.
        let sp = space(2, 4);
        let traffic = workload::all_pairs(sp);
        for policy in WildcardPolicy::all() {
            let s = sim(
                2,
                4,
                SimConfig {
                    router: RouterKind::Algorithm4,
                    policy,
                    ..Default::default()
                },
            );
            let mut metrics = InMemoryRecorder::new();
            s.run_recorded(&traffic, &mut metrics);
            assert!(metrics.wildcards_resolved() > 0, "{}", policy.name());
            assert_eq!(
                metrics.wildcard_by_policy.get(policy.name()),
                Some(&metrics.wildcards_resolved()),
                "{}",
                policy.name()
            );
            let digits_used = metrics.wildcard_by_digit.len();
            match policy {
                WildcardPolicy::Zero => assert_eq!(digits_used, 1),
                _ => assert_eq!(
                    digits_used,
                    2,
                    "{} must spread over both digits",
                    policy.name()
                ),
            }
        }
    }

    #[test]
    fn drops_are_recorded_with_reasons() {
        let sp = space(2, 4);
        let fault = sp.word_from_rank(9).unwrap();
        let s = sim(2, 4, SimConfig::default())
            .with_faults(vec![fault])
            .unwrap();
        let traffic = workload::all_pairs(sp);
        let mut metrics = InMemoryRecorder::new();
        let report = s.run_recorded(&traffic, &mut metrics);
        assert_eq!(metrics.dropped(), report.dropped as u64);
        // All-pairs traffic hits the fault as source, as destination
        // midpoint (in transit), and the recorder distinguishes them.
        assert!(metrics.drops_by_reason.contains_key("faulty-source"));
        assert!(metrics.drops_by_reason.contains_key("faulty-node"));
    }

    #[test]
    fn reroutes_are_recorded_under_source_reroute() {
        let sp = space(2, 4);
        let fault = sp.word_from_rank(9).unwrap();
        let config = SimConfig {
            fault_handling: FaultHandling::SourceReroute,
            ..Default::default()
        };
        let s = Simulation::new(sp, config)
            .unwrap()
            .with_faults(vec![fault])
            .unwrap();
        let traffic = workload::all_pairs(sp);
        let mut metrics = InMemoryRecorder::new();
        let report = s.run_recorded(&traffic, &mut metrics);
        // Every message whose source survives goes through the BFS
        // rerouter (sources know the fault set), but a Reroute event is
        // only recorded when BFS actually finds a detour: pairs aimed at
        // the dead node drop with NoRoute instead.
        let n = sp.order_usize().unwrap();
        assert_eq!(metrics.reroutes, (report.injected - 2 * (n - 1)) as u64);
        assert_eq!(metrics.drops_by_reason["no-route"], (n - 1) as u64);
        assert_eq!(metrics.drops_by_reason["faulty-source"], (n - 1) as u64);
    }

    #[test]
    fn links_serve_fifo_with_service_spacing() {
        // Saturate the network and check, per link, that departure times
        // are spaced at least one service apart (no double-booking) and
        // never precede the handover.
        use std::collections::HashMap;
        let sp = space(2, 4);
        let traffic = workload::permutation(sp, 1)
            .into_iter()
            .chain(workload::permutation(sp, 2))
            .collect::<Vec<_>>();
        let s = sim(2, 4, SimConfig::default());
        let (_, trace) = run_collected(&s, &traffic);
        let mut last_depart: HashMap<(u128, u128), u64> = HashMap::new();
        let mut events: Vec<(&Word, &Word, u64, u64)> = Vec::new();
        for ev in &trace {
            if let NetEvent::Forward {
                from,
                to,
                time,
                departs,
                ..
            } = ev
            {
                events.push((from, to, *time, *departs));
            }
        }
        // The trace is produced in event order, which is handover order.
        for (from, to, time, departs) in events {
            assert!(departs >= time, "link serves before handover");
            let key = (from.rank(), to.rank());
            if let Some(&prev) = last_depart.get(&key) {
                assert!(
                    departs > prev,
                    "link {from}->{to} double-booked: {prev} then {departs}"
                );
            }
            last_depart.insert(key, departs);
        }
    }

    #[test]
    fn queue_wait_is_zero_in_unloaded_network() {
        let sp = space(2, 4);
        let mut traffic = workload::uniform_random(sp, 40, 8);
        for (i, inj) in traffic.iter_mut().enumerate() {
            inj.time = (i as u64) * 100;
        }
        let r = sim(2, 4, SimConfig::default()).run(&traffic);
        assert_eq!(r.total_queue_wait, 0);
        assert_eq!(r.max_queue_wait, 0);
    }

    #[test]
    fn queue_wait_appears_under_contention() {
        let sp = space(2, 4);
        let x = sp.word_from_rank(2).unwrap();
        let y = sp.word_from_rank(11).unwrap();
        let traffic: Vec<Injection> = (0..8)
            .map(|_| Injection {
                time: 0,
                source: x.clone(),
                destination: y.clone(),
            })
            .collect();
        let r = sim(2, 4, SimConfig::default()).run(&traffic);
        assert!(
            r.max_queue_wait >= 7,
            "8 simultaneous messages share the first link"
        );
    }

    #[test]
    fn queue_depth_counts_messages_ahead() {
        // 8 identical messages at t = 0 share the first link: the i-th
        // handover sees exactly i messages ahead of it.
        let sp = space(2, 4);
        let x = sp.word_from_rank(2).unwrap();
        let y = sp.word_from_rank(11).unwrap();
        let traffic: Vec<Injection> = (0..8)
            .map(|_| Injection {
                time: 0,
                source: x.clone(),
                destination: y.clone(),
            })
            .collect();
        let mut metrics = InMemoryRecorder::new();
        sim(2, 4, SimConfig::default()).run_recorded(&traffic, &mut metrics);
        assert_eq!(metrics.queue_depth.max(), Some(7));
        assert_eq!(metrics.queue_depth.min(), Some(0));
    }

    #[test]
    fn multipath_router_keeps_routes_shortest() {
        let sp = space(2, 5);
        let traffic = workload::all_pairs(sp);
        let single = sim(
            2,
            5,
            SimConfig {
                router: RouterKind::Algorithm2,
                ..Default::default()
            },
        )
        .run(&traffic);
        let multi = sim(
            2,
            5,
            SimConfig {
                router: RouterKind::Multipath,
                ..Default::default()
            },
        )
        .run(&traffic);
        // Same hop distribution (all routes are shortest) …
        assert_eq!(single.hop_histogram, multi.hop_histogram);
        // … but spread over strictly more links than the deterministic
        // single-path choice under this all-pairs load.
        assert!(
            multi.link_load_summary().links_used >= single.link_load_summary().links_used,
            "multipath should never use fewer links"
        );
    }

    #[test]
    fn hop_by_hop_matches_source_routing_hop_counts() {
        let sp = space(2, 5);
        let traffic = workload::all_pairs(sp);
        for router in [RouterKind::Algorithm1, RouterKind::Algorithm2] {
            let src_routed = sim(
                2,
                5,
                SimConfig {
                    router,
                    ..Default::default()
                },
            )
            .run(&traffic);
            let hop_by_hop = sim(
                2,
                5,
                SimConfig {
                    router,
                    forwarding: ForwardingMode::HopByHop,
                    ..Default::default()
                },
            )
            .run(&traffic);
            assert_eq!(
                src_routed.hop_histogram,
                hop_by_hop.hop_histogram,
                "{}",
                router.name()
            );
            assert_eq!(hop_by_hop.delivered, traffic.len());
        }
    }

    #[test]
    fn hop_by_hop_with_per_hop_reroute_avoids_faults() {
        let sp = space(3, 3);
        let fault = sp.word_from_rank(11).unwrap();
        let traffic = workload::all_pairs(sp);
        let config = SimConfig {
            forwarding: ForwardingMode::HopByHop,
            fault_handling: FaultHandling::SourceReroute,
            ..Default::default()
        };
        let s = Simulation::new(sp, config)
            .unwrap()
            .with_faults(vec![fault])
            .unwrap();
        let r = s.run(&traffic);
        // d = 3 tolerates 2 faults; only the 2(N−1) endpoint-faulty
        // messages are lost.
        let n = sp.order_usize().unwrap();
        assert_eq!(r.dropped, 2 * (n - 1));
        assert_eq!(r.delivered + r.dropped, r.injected);
    }

    #[test]
    fn ttl_exhaustion_drops_and_is_attributed() {
        // The trivial router always walks k hops, so ttl < k kills every
        // message with reason "ttl"; ttl >= k changes nothing.
        let sp = space(2, 4);
        let traffic = workload::uniform_random(sp, 120, 6);
        let mk = |ttl| SimConfig {
            router: RouterKind::Trivial,
            ttl,
            ..Default::default()
        };
        let starved = sim(2, 4, mk(3)).run(&traffic);
        assert_eq!(starved.delivered, 0);
        assert_eq!(starved.dropped, 120);
        assert_eq!(starved.dropped_by_reason.get("ttl"), Some(&120));
        let generous = sim(2, 4, mk(4)).run(&traffic);
        assert_eq!(generous.delivered, 120);
        assert!(generous.dropped_by_reason.is_empty());
        assert_eq!(sim(2, 4, mk(0)).run(&traffic).delivered, 120);
    }

    #[test]
    fn dropped_by_reason_sums_to_dropped() {
        let sp = space(2, 4);
        let fault = sp.word_from_rank(9).unwrap();
        let s = sim(2, 4, SimConfig::default())
            .with_faults(vec![fault])
            .unwrap();
        let traffic = workload::all_pairs(sp);
        let mut metrics = InMemoryRecorder::new();
        let r = s.run_recorded(&traffic, &mut metrics);
        assert!(r.dropped > 0);
        assert_eq!(r.dropped_by_reason.values().sum::<u64>(), r.dropped as u64);
        // The report's breakdown is exactly the recorder's view.
        assert_eq!(r.dropped_by_reason, metrics.drops_by_reason);
    }

    #[test]
    fn conservation_messages_are_delivered_or_dropped_once() {
        let sp = space(2, 4);
        let faults = vec![sp.word_from_rank(5).unwrap()];
        let s = sim(2, 4, SimConfig::default()).with_faults(faults).unwrap();
        let traffic = workload::uniform_random(sp, 400, 3);
        let r = s.run(&traffic);
        assert_eq!(r.delivered + r.dropped, r.injected);
    }

    #[test]
    fn drop_mode_loses_messages_crossing_the_fault() {
        let sp = space(2, 4);
        let fault = sp.word_from_rank(9).unwrap();
        let s = sim(2, 4, SimConfig::default())
            .with_faults(vec![fault.clone()])
            .unwrap();
        let traffic = workload::all_pairs(sp);
        let r = s.run(&traffic);
        assert!(r.dropped > 0, "some route must cross rank 9");
        assert_eq!(r.delivered + r.dropped, r.injected);
    }

    #[test]
    fn source_reroute_only_loses_faulty_endpoints() {
        let sp = space(2, 4);
        let fault = sp.word_from_rank(9).unwrap();
        let config = SimConfig {
            fault_handling: FaultHandling::SourceReroute,
            ..Default::default()
        };
        let s = Simulation::new(sp, config)
            .unwrap()
            .with_faults(vec![fault.clone()])
            .unwrap();
        let traffic = workload::all_pairs(sp);
        let r = s.run(&traffic);
        // Exactly the pairs touching the fault are lost: 2·(N−1) of them
        // (fault as source, fault as destination).
        let n = sp.order_usize().unwrap();
        assert_eq!(r.dropped, 2 * (n - 1));
        assert_eq!(r.delivered, r.injected - 2 * (n - 1));
    }

    #[test]
    fn dead_links_drop_messages_in_drop_mode() {
        let sp = space(2, 4);
        let a = sp.word_from_rank(3).unwrap();
        let b = a.shift_left(1);
        let s = sim(2, 4, SimConfig::default())
            .with_link_faults(vec![(a.clone(), b.clone())])
            .unwrap();
        let traffic = workload::all_pairs(sp);
        let r = s.run(&traffic);
        assert!(r.dropped > 0, "some route must use the dead link");
        assert_eq!(r.delivered + r.dropped, r.injected);
        // The dead link never appears in the load map.
        assert!(!r.link_loads.contains_key(&(a.rank(), b.rank())));
    }

    #[test]
    fn dead_links_are_routed_around_with_source_reroute() {
        let sp = space(2, 4);
        let a = sp.word_from_rank(3).unwrap();
        let b = a.shift_left(1);
        let config = SimConfig {
            fault_handling: FaultHandling::SourceReroute,
            ..Default::default()
        };
        let s = Simulation::new(sp, config)
            .unwrap()
            .with_link_faults(vec![(a.clone(), b.clone()), (b.clone(), a.clone())])
            .unwrap();
        let traffic = workload::all_pairs(sp);
        let r = s.run(&traffic);
        // One dead link never cuts a graph of minimum degree >= 2.
        assert_eq!(r.dropped, 0);
        assert_eq!(r.delivered, traffic.len());
        assert!(!r.link_loads.contains_key(&(a.rank(), b.rank())));
        assert!(!r.link_loads.contains_key(&(b.rank(), a.rank())));
    }

    #[test]
    fn with_link_faults_rejects_foreign_words() {
        let s = sim(2, 4, SimConfig::default());
        let a = Word::parse(2, "0000").unwrap();
        let foreign = Word::parse(3, "0000").unwrap();
        assert!(matches!(
            s.with_link_faults(vec![(a, foreign)]),
            Err(NetError::ForeignWord { .. })
        ));
    }

    #[test]
    fn with_faults_rejects_foreign_words() {
        let s = sim(2, 4, SimConfig::default());
        let foreign = Word::parse(3, "0120").unwrap();
        let err = s.with_faults(vec![foreign]).unwrap_err();
        assert!(matches!(err, NetError::ForeignWord { .. }));
    }

    #[test]
    fn total_links_matches_census() {
        // Bidirectional: sum of undirected degrees = 2 · |E|.
        let s = sim(
            2,
            3,
            SimConfig {
                router: RouterKind::Algorithm2,
                ..Default::default()
            },
        );
        let r = s.run(&[]);
        let g = DebruijnGraph::undirected(space(2, 3)).unwrap();
        assert_eq!(r.total_links, g.adjacency_count());
    }

    #[test]
    fn congestion_delays_messages_on_shared_links() {
        // Many messages between the same pair at time 0 must serialize on
        // the first link.
        let sp = space(2, 4);
        let x = sp.word_from_rank(1).unwrap();
        let y = sp.word_from_rank(14).unwrap();
        let traffic: Vec<Injection> = (0..10)
            .map(|_| Injection {
                time: 0,
                source: x.clone(),
                destination: y.clone(),
            })
            .collect();
        let s = sim(
            2,
            4,
            SimConfig {
                router: RouterKind::Algorithm2,
                ..Default::default()
            },
        );
        let r = s.run(&traffic);
        assert_eq!(r.delivered, 10);
        // With service 1, the 10th message leaves the first link 9 ticks
        // late: max latency strictly exceeds the uncongested latency.
        let uncongested = (r.total_hops / 10) * 2;
        assert!(r.latency_max > uncongested);
    }
}
