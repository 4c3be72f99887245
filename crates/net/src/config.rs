//! What a simulation is configured with: the network's link timing,
//! the routing and fault-handling choices, its traffic, and the errors
//! setting one up can raise.

use std::error::Error as StdError;
use std::fmt;

use debruijn_core::Word;
use debruijn_graph::GraphError;

use crate::policy::WildcardPolicy;
use crate::router::RouterKind;

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
    /// Seed for the random wildcard policy and the multipath router's
    /// per-message route pick.
    pub seed: u64,
    /// Worker threads (1 = inline, 0 = available parallelism): they step
    /// the shards and compute the source routes before the run. Reports
    /// are byte-identical for every thread count.
    pub threads: usize,
    /// Hop budget per message: a message still in flight after `ttl`
    /// hops is dropped with [`DropReason::Ttl`](crate::DropReason::Ttl).
    /// `0` (the default) disables the budget. Optimal routes need at
    /// most `k` hops, so a `ttl >= k` never fires on healthy traffic.
    pub ttl: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            router: RouterKind::default(),
            policy: WildcardPolicy::default(),
            link: LinkParams::default(),
            fault_handling: FaultHandling::default(),
            seed: 0xDEB1,
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
    /// The requested configuration is outside what the engine supports
    /// (e.g. a next-hop table tier under a wildcard policy).
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
