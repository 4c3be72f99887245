//! The simulation engine: §3's protocol on a sharded, deterministic,
//! time-stepped network.
//!
//! * **Tiered forwarding** ([`NextHopMode`]): a precomputed
//!   [`NextHopTable`] answers "which port moves this message closer?"
//!   with one indexed load when the space fits its memory cap; above
//!   the cap a [`CompressedNextHop`] cursor predicts the *same ports*
//!   from the shift structure with `O(k)` state — so `DG(2,20)` and
//!   beyond stay on a fast path. Both forward along one fixed optimal
//!   route per pair, so they serve the optimal routers under the `Zero`
//!   wildcard policy with drop-on-fault. Every other configuration runs
//!   on the fallback tier, which is §3 itself: the source writes the
//!   whole routing path (computed once per message before the run, by
//!   the configured router or a fault-avoiding BFS), and each hop pops
//!   one `(a, b)` step and resolves any `*` digit with the
//!   [`WildcardPolicy`]. [`RankSpace`] arithmetic replaces per-hop
//!   [`Word`] allocation on every tier.
//! * **Conservative time-stepped parallelism**: nodes are partitioned
//!   into `S` contiguous rank ranges (shards); each shard owns its
//!   event queue, message arena, link state, and report accumulators.
//!   Every link has lookahead `L = service + latency ≥ 1` ticks, so a
//!   message forwarded at tick `T` cannot arrive before `T + L`:
//!   each worker processes the whole window `[T, T + L)` with no
//!   coordination, sends cross-shard messages through per-`(src, dst)`
//!   mailboxes of two plain buffers each (the current window's and the
//!   previous one's — no locks, no atomics, no bound), and agrees on
//!   the next window at a spinning
//!   [`TickBarrier`](debruijn_parallel::TickBarrier), which also hands
//!   each window's mailbox contents to their readers.
//! * **Bit-for-bit determinism**: each tick's batch is restored to
//!   message-id order before processing (ids are unique within a
//!   batch, so an unstable sort fixes it), mailboxes are drained in
//!   fixed shard order, per-shard partial reports merge over
//!   order-independent (sum/max/`BTreeMap`) accumulators, wildcard and
//!   multipath draws hash the message id instead of sharing an RNG
//!   stream, and recorded events are replayed to the [`Recorder`] in a
//!   canonical `(tick, message)` order — so the final report, trace,
//!   and metrics are identical for **any** `--shards`/`--threads`
//!   combination, and the dense and compressed tiers are identical to
//!   each other.
//!
//! See `docs/SCALING.md` for the full architecture (mailboxes,
//! windowed barrier, determinism proof sketch, next-hop compression)
//! and ADRs 0005, 0006 and 0010 for the alternatives this design
//! rejected.

use std::cell::UnsafeCell;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Mutex;

use debruijn_core::distance;
use debruijn_core::rng::SplitMix64;
use debruijn_core::routing::table::DEFAULT_TABLE_MEMORY_CAP;
use debruijn_core::routing::{
    self, CompressedNextHop, CompressedScratch, NextHopTable, RoutingScratch,
};
use debruijn_core::space::RankSpace;
use debruijn_core::{DeBruijn, Digit, RoutePath, ShiftKind, Word};
use debruijn_graph::{fault, DebruijnGraph};

use crate::config::{FaultHandling, Injection, NetError, SimConfig};
use crate::policy::WildcardPolicy;
use crate::profiler::{
    EngineProfile, HopSpan, Phase, ProfShared, ProfileConfig, SampledDelivery, ShardMeta,
    SpanSampler, WorkerTimer,
};
use crate::record::{DropReason, NetEvent, NullRecorder, Observe, Recorder};
use crate::router::RouterKind;
use crate::stats::SimReport;

/// The multipath pick's salt for [`ShardedSimulation::message_rng`]:
/// above every hop index the random wildcard policy salts with.
const MULTIPATH_SALT: u64 = 0xFFFF;

/// A sharded, deterministic, time-stepped simulation of `DG(d,k)`.
///
/// Honors every [`SimConfig`] field: `router` fills the routing-path
/// field and selects the network model (Algorithms 2/4 and multipath ⇒
/// undirected, trivial and Algorithm 1 ⇒ directed), `policy` resolves
/// wildcard steps, `fault_handling` drops at faulty nodes or reroutes
/// at the source, and `link`, `seed`, `threads` and `ttl` behave as
/// documented there. Node ids are `u64` ranks, so `d^k` must fit a
/// `u64`.
///
/// # Examples
///
/// ```
/// use debruijn_core::DeBruijn;
/// use debruijn_net::shard::{NextHopMode, ShardedSimulation};
/// use debruijn_net::{workload, SimConfig};
///
/// let space = DeBruijn::new(2, 6)?;
/// let traffic = workload::uniform_random(space, 500, 7);
/// let table = ShardedSimulation::new(space, SimConfig::default(), 4)?;
/// let report = table.run(&traffic);
/// // Next-hop forwarding and §3 source routing both deliver every
/// // message in exactly its distance, so the hop histograms agree.
/// let source_routed = ShardedSimulation::new(space, SimConfig::default(), 4)?
///     .with_next_hop(NextHopMode::Fallback)?
///     .run(&traffic);
/// assert_eq!(report.hop_histogram, source_routed.hop_histogram);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ShardedSimulation {
    space: DeBruijn,
    config: SimConfig,
    partition: Partition,
    ranks: RankSpace,
    directed: bool,
    path: FastPath,
    table_cap: usize,
    /// Faulty nodes by rank.
    faults: HashSet<u64>,
    /// The graph and fault set [`FaultHandling::SourceReroute`] sources
    /// search for detours (present only when there are faults).
    reroute: Option<(DebruijnGraph, Vec<Word>)>,
}

/// Which forwarding tier the sharded engine uses. `Auto` (the default)
/// picks a next-hop tier for exactly the configuration those implement
/// — an optimal router (Algorithm 1, 2 or 4), the `Zero` wildcard policy
/// and [`FaultHandling::Drop`] — and the fallback tier for every other
/// one. Of the next-hop tiers it takes the dense table when it fits the
/// memory cap and the compressed shift-prediction cursor beyond it; the
/// two produce byte-identical reports (the compressed engine reproduces
/// the dense table's ports exactly). The fallback tier forwards along
/// each message's §3 routing-path field, and may be forced for any
/// configuration.
///
/// # Examples
///
/// ```
/// use debruijn_core::DeBruijn;
/// use debruijn_net::shard::{NextHopMode, ShardedSimulation};
/// use debruijn_net::{SimConfig, WildcardPolicy};
///
/// let space = DeBruijn::new(2, 6)?;
/// let sim = ShardedSimulation::new(space, SimConfig::default(), 2)?;
/// // 64 nodes fit the dense cap comfortably.
/// assert_eq!(sim.next_hop_mode(), NextHopMode::Dense);
/// let sim = sim.with_next_hop(NextHopMode::Compressed)?;
/// assert_eq!(sim.next_hop_mode(), NextHopMode::Compressed);
/// // A wildcard policy needs the routing-path field.
/// let config = SimConfig { policy: WildcardPolicy::Random, ..SimConfig::default() };
/// let sim = ShardedSimulation::new(space, config, 2)?;
/// assert_eq!(sim.next_hop_mode(), NextHopMode::Fallback);
/// assert!(sim.with_next_hop(NextHopMode::Dense).is_err());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NextHopMode {
    /// A next-hop tier where one applies (dense if it fits the memory
    /// cap, else compressed), the fallback tier otherwise.
    #[default]
    Auto,
    /// Force the dense [`NextHopTable`] (error if it cannot be built).
    Dense,
    /// Force the compressed shift-prediction cursor.
    Compressed,
    /// Force §3 source routing: each message carries its route, computed
    /// before the run, and each hop pops one step.
    Fallback,
}

/// The resolved forwarding tier (see [`NextHopMode`]).
#[derive(Debug)]
enum FastPath {
    Dense(NextHopTable),
    Compressed(CompressedNextHop),
    Fallback,
}

/// One in-flight message: plain-old-data, moved by value between shard
/// arenas and mailboxes — no per-message heap allocation.
#[derive(Debug, Clone, Copy)]
struct Flight {
    /// Index in the injected traffic; also the deterministic sort key.
    id: u32,
    at: u64,
    dst: u64,
    /// The node that forwarded the message to `at` (equal to `at`
    /// until the first hop) — the `upstream` of a drop event.
    prev: u64,
    injected_at: u64,
    hops: u32,
    /// Remaining distance to `dst` — the compressed next-hop cursor,
    /// maintained only on the compressed tier (0 elsewhere).
    dist: u32,
    /// Fault-free shortest distance, recorded at injection for
    /// observability (0 when unobserved).
    shortest: u32,
    /// Whether the profiler's [`SpanSampler`] tagged this message for
    /// causal span tracing (always `false` on unprofiled runs).
    sampled: bool,
}

/// How far past its base the tick calendar indexes batches directly;
/// later ticks wait in an ordered map, so a far-future tick allocates
/// nothing for the gap.
const HORIZON: u64 = 1 << 12;

/// Per-tick event storage: a calendar of batches indexed from the
/// lowest pending tick, an ordered map for ticks past the horizon, and a
/// free-list of batch vectors, so a shard's steady-state tick processing
/// recycles arena buffers instead of allocating.
///
/// Every pending tick below `base + HORIZON` has its batch in `near`, at
/// index `tick − base`; every later one in `far`. `near` is empty only
/// when the whole queue is, and otherwise starts with a non-empty batch,
/// so `base` is the lowest pending tick.
#[derive(Debug, Default)]
struct TickQueue {
    near: VecDeque<Vec<Flight>>,
    base: u64,
    far: BTreeMap<u64, Vec<Flight>>,
    pool: Vec<Vec<Flight>>,
}

impl TickQueue {
    fn push(&mut self, tick: u64, flight: Flight) {
        if self.near.is_empty() {
            self.base = tick;
        } else if tick < self.base {
            self.lower_base(tick);
        }
        let offset = tick - self.base;
        if offset < HORIZON {
            let i = offset as usize;
            if i >= self.near.len() {
                self.near.resize_with(i + 1, Vec::new);
            }
            let batch = &mut self.near[i];
            if batch.capacity() == 0 {
                *batch = self.pool.pop().unwrap_or_default();
            }
            batch.push(flight);
        } else {
            use std::collections::btree_map::Entry;
            match self.far.entry(tick) {
                Entry::Occupied(e) => e.into_mut().push(flight),
                Entry::Vacant(v) => {
                    let mut batch = self.pool.pop().unwrap_or_default();
                    batch.push(flight);
                    v.insert(batch);
                }
            }
        }
    }

    /// Re-indexes the calendar from `tick < base`: batches at or past
    /// `tick + HORIZON` move to the far map, and empty slots fill the
    /// gap below the old base.
    fn lower_base(&mut self, tick: u64) {
        let gap = self.base - tick;
        while !self.near.is_empty() && (self.near.len() as u64).saturating_add(gap) > HORIZON {
            let last = self.base + self.near.len() as u64 - 1;
            let batch = self.near.pop_back().expect("near is non-empty");
            if !batch.is_empty() {
                self.far.insert(last, batch);
            }
        }
        if !self.near.is_empty() {
            for _ in 0..gap {
                self.near.push_front(Vec::new());
            }
        }
        self.base = tick;
    }

    /// Removes and returns the lowest pending tick's batch if that tick
    /// is below `limit`.
    fn pop_before(&mut self, limit: u64) -> Option<(u64, Vec<Flight>)> {
        if self.near.is_empty() || self.base >= limit {
            return None;
        }
        let tick = self.base;
        let batch = self.near.pop_front().expect("near is non-empty");
        self.base = tick.wrapping_add(1);
        // Restore the invariant: skip to the next pending tick, then pull
        // the far batches the advanced horizon now covers.
        while self.near.front().is_some_and(Vec::is_empty) {
            self.near.pop_front();
            self.base += 1;
        }
        if self.near.is_empty() {
            match self.far.first_key_value() {
                Some((&first, _)) => self.base = first,
                None => return Some((tick, batch)),
            }
        }
        let end = self.base.saturating_add(HORIZON);
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() >= end {
                break;
            }
            let i = (*entry.key() - self.base) as usize;
            if i >= self.near.len() {
                self.near.resize_with(i + 1, Vec::new);
            }
            self.near[i] = entry.remove();
        }
        Some((tick, batch))
    }

    fn recycle(&mut self, mut batch: Vec<Flight>) {
        batch.clear();
        if self.pool.len() < 64 {
            self.pool.push(batch);
        }
    }

    /// The lowest pending tick, or `u64::MAX` when nothing is pending.
    fn next_tick(&self) -> u64 {
        if self.near.is_empty() {
            u64::MAX
        } else {
            self.base
        }
    }
}

/// One `(source shard, destination shard)` mailbox: a plain buffer per
/// window parity. During window `w` the source shard's worker appends
/// to buffer `w & 1`, and the destination shard's worker drains buffer
/// `(w + 1) & 1`, which holds what the source sent during window
/// `w − 1`. Entries sent during a window carry arrival ticks at or past
/// its end, so draining them at the start of the next window is in time
/// for every tick they name. Nothing is bounded, so nothing spills.
struct Mailbox {
    windows: [UnsafeCell<Vec<(u64, Flight)>>; 2],
}

// SAFETY: the shard→worker assignment is static (`sid % workers`), so
// one worker only ever appends to a mailbox's buffers (the source
// shard's) and one worker only ever drains them (the destination
// shard's). Within a window the two touch buffers of opposite parity.
// Across windows every worker crosses the `TickBarrier`, whose release
// store of its generation and the peers' acquire loads of it order the
// producer's appends of window `w − 1` before the consumer's drain in
// window `w`, and that drain before the producer's appends in window
// `w + 1` to the same buffer. So no buffer is ever accessed from two
// threads without a happens-before edge between the accesses.
unsafe impl Sync for Mailbox {}

impl Mailbox {
    fn new() -> Self {
        Self {
            windows: [UnsafeCell::new(Vec::new()), UnsafeCell::new(Vec::new())],
        }
    }

    /// Appends one `(arrival tick, flight)` entry to the buffer of
    /// window parity `parity`.
    ///
    /// # Safety
    ///
    /// The caller must be the worker owning the source shard, and
    /// `parity` must be its current window's (see [`Mailbox`]).
    unsafe fn push(&self, parity: usize, entry: (u64, Flight)) {
        // SAFETY: per the contract, no other thread touches this buffer
        // during the current window.
        unsafe { (*self.windows[parity].get()).push(entry) };
    }

    /// Moves every entry of window parity `parity` into `queue`, keeping
    /// the buffer's capacity for the next time it is filled.
    ///
    /// # Safety
    ///
    /// The caller must be the worker owning the destination shard, and
    /// `parity` must be the previous window's (see [`Mailbox`]).
    unsafe fn drain_into(&self, parity: usize, queue: &mut TickQueue) {
        // SAFETY: per the contract, the producer finished this buffer
        // before the last barrier and will not touch it before the next.
        let buffer = unsafe { &mut *self.windows[parity].get() };
        for (t, f) in buffer.drain(..) {
            queue.push(t, f);
        }
    }
}

/// The nodes' split into `S` contiguous rank ranges: shard `s` owns
/// `[⌈n·s/S⌉, ⌈n·(s+1)/S⌉)`, i.e. node `x` belongs to shard
/// `⌊x·S/n⌋`. The owner lookup divides nothing: ranks fall into
/// power-of-two buckets no wider than the narrowest shard, so a bucket
/// meets at most two shards, and one comparison with the second one's
/// first rank decides.
#[derive(Debug)]
struct Partition {
    /// `bases[s]`: the first rank of shard `s`; `bases[S] = n`.
    bases: Vec<u64>,
    /// `log2` of the bucket width.
    shift: u32,
    /// `first[b]`: the shard owning rank `b << shift`.
    first: Vec<usize>,
}

impl Partition {
    /// Splits `order` ranks into `shards` ranges (`1 ≤ shards ≤ order`).
    fn new(order: u64, shards: usize) -> Self {
        let n = u128::from(order);
        let s = shards as u128;
        let bases: Vec<u64> = (0..=s).map(|sid| (n * sid).div_ceil(s) as u64).collect();
        // Every shard is at least ⌊n/S⌋ ranks wide.
        let shift = (order / shards as u64).ilog2();
        let first = (0..=(order - 1) >> shift)
            .map(|b| ((u128::from(b << shift) * s) / n) as usize)
            .collect();
        Self {
            bases,
            shift,
            first,
        }
    }

    fn shards(&self) -> usize {
        self.bases.len() - 1
    }

    /// The first rank of shard `sid` (`sid ≤ S`).
    fn base(&self, sid: usize) -> u64 {
        self.bases[sid]
    }

    /// The shard owning `node`.
    #[inline]
    fn owner(&self, node: u64) -> usize {
        let s = self.first[(node >> self.shift) as usize];
        s + usize::from(node >= self.bases[s + 1])
    }
}

/// Restores a tick batch to canonical message-id order. Ids are unique
/// within a batch (a message is at one node per tick), so the unstable
/// sort's order is fully determined.
fn sort_by_id(batch: &mut [Flight]) {
    batch.sort_unstable_by_key(|f| f.id);
}

/// Per-link FIFO state and load counters, keyed by `(from, to)` node
/// pairs exactly like [`SimReport::link_loads`].
#[derive(Debug)]
enum LinkState {
    /// Table mode: the shard's nodes are few, so links live in flat
    /// arrays indexed by `(node − base) · ports + canonical port`.
    Dense {
        base: u64,
        ports: usize,
        free: Vec<u64>,
        loads: Vec<u64>,
    },
    /// Spaces whose link slots exceed the flat budget: hash/tree maps.
    Sparse {
        free: HashMap<(u64, u64), u64>,
        loads: BTreeMap<(u128, u128), u64>,
    },
}

/// The neighbor one `port` hop from `at` (ports numbered as in
/// [`RankSpace`]: `a < d` shifts left, `d + a` shifts right).
#[inline]
fn port_target(ranks: &RankSpace, at: u64, port: u8) -> u64 {
    let d = ranks.space().d();
    if port < d {
        ranks.shift_left(at, port)
    } else {
        ranks.shift_right(at, port - d)
    }
}

impl LinkState {
    /// The canonical slot for the link `at → next` reached through
    /// `port`: parallel shift operations can alias (e.g.
    /// `X⁻(a) = X⁺(b)`), and the report keys links by endpoints, so all
    /// aliases share the slot of the smallest port reaching `next`.
    #[inline]
    fn dense_slot(ranks: &RankSpace, base: u64, ports: usize, at: u64, port: u8) -> usize {
        (at - base) as usize * ports + usize::from(ranks.canonical_port(at, port))
    }

    /// The tick the link `at → next` (reached through `port`) is free.
    fn free_time(&self, ranks: &RankSpace, at: u64, port: u8, next: u64) -> u64 {
        match self {
            LinkState::Dense {
                base, ports, free, ..
            } => free[Self::dense_slot(ranks, *base, *ports, at, port)],
            LinkState::Sparse { free, .. } => free.get(&(at, next)).copied().unwrap_or(0),
        }
    }

    /// Books one message on the link `at → next` (reached through
    /// `port`): bumps the FIFO free time and the load counter, returning
    /// the departure tick.
    fn book(
        &mut self,
        ranks: &RankSpace,
        at: u64,
        port: u8,
        next: u64,
        now: u64,
        service: u64,
    ) -> u64 {
        match self {
            LinkState::Dense {
                base,
                ports,
                free,
                loads,
            } => {
                let slot = Self::dense_slot(ranks, *base, *ports, at, port);
                let depart = now.max(free[slot]);
                free[slot] = depart + service;
                loads[slot] += 1;
                depart
            }
            LinkState::Sparse { free, loads } => {
                let f = free.entry((at, next)).or_insert(0);
                let depart = now.max(*f);
                *f = depart + service;
                *loads.entry((u128::from(at), u128::from(next))).or_insert(0) += 1;
                depart
            }
        }
    }

    /// Folds this shard's loads into the merged report map.
    fn merge_loads(self, ranks: &RankSpace, into: &mut BTreeMap<(u128, u128), u64>) {
        match self {
            LinkState::Dense {
                base, ports, loads, ..
            } => {
                for (node, slots) in (base..).zip(loads.chunks(ports)) {
                    for (port, &load) in (0u8..).zip(slots) {
                        if load == 0 {
                            continue;
                        }
                        let target = port_target(ranks, node, port);
                        *into
                            .entry((u128::from(node), u128::from(target)))
                            .or_insert(0) += load;
                    }
                }
            }
            LinkState::Sparse { loads, .. } => {
                for (key, load) in loads {
                    *into.entry(key).or_insert(0) += load;
                }
            }
        }
    }
}

/// Everything one shard owns: nodes `[lo, hi)`, their event queue and
/// arena, link state, wildcard counters, partial report, and (when
/// observed) the events it witnessed.
#[derive(Debug)]
struct ShardState {
    sid: usize,
    links: LinkState,
    /// Per-node round-robin wildcard counters (fallback tier only).
    rr: HashMap<u64, u8>,
    report: SimReport,
    events: Vec<NetEvent>,
    queue: TickQueue,
    cscratch: CompressedScratch,
    /// Flight steps processed — deterministic work accounting for the
    /// profiler's imbalance report.
    steps: u64,
    /// Causal spans of sampled messages (profiled runs only).
    spans: Vec<HopSpan>,
    /// Terminal records of sampled deliveries (profiled runs only).
    deliveries: Vec<SampledDelivery>,
}

impl ShardedSimulation {
    /// Creates a sharded simulation of `DG(d,k)` with `shards` node
    /// partitions (clamped to `[1, d^k]`; the partition — and therefore
    /// every result — depends only on the clamped count, never on
    /// `config.threads`).
    ///
    /// Resolves [`NextHopMode::Auto`]: for an optimal router under the
    /// `Zero` policy and drop-on-fault it builds the [`NextHopTable`] in
    /// parallel (`config.threads`) when it fits the default memory cap
    /// ([`DEFAULT_TABLE_MEMORY_CAP`]), and the compressed cursor
    /// otherwise; every other configuration forwards on the fallback
    /// tier.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unsupported`] if the space is too large for
    /// 64-bit node ids, or if the link timing violates the lookahead
    /// requirement `service + latency ≥ 1`.
    pub fn new(space: DeBruijn, config: SimConfig, shards: usize) -> Result<Self, NetError> {
        let Some(ranks) = RankSpace::new(space) else {
            return Err(NetError::Unsupported {
                what: "sharded simulation needs d^k to fit 64-bit node ids".to_string(),
            });
        };
        if config.link.service + config.link.latency == 0 {
            return Err(NetError::Unsupported {
                what: "sharded simulation needs service + latency >= 1 (lookahead)".to_string(),
            });
        }
        let shards = shards
            .max(1)
            .min(usize::try_from(ranks.order()).unwrap_or(usize::MAX));
        let directed = !config.router.needs_bidirectional();
        let mut sim = Self {
            space,
            config,
            partition: Partition::new(ranks.order(), shards),
            ranks,
            directed,
            path: FastPath::Fallback,
            table_cap: DEFAULT_TABLE_MEMORY_CAP,
            faults: HashSet::new(),
            reroute: None,
        };
        sim.path = sim.resolve_auto();
        Ok(sim)
    }

    /// Whether the next-hop tiers implement this configuration: they
    /// forward along one fixed optimal route per pair, which is what an
    /// optimal router does under the `Zero` policy and drop-on-fault.
    fn next_hop_applies(&self) -> bool {
        matches!(
            self.config.router,
            RouterKind::Algorithm1 | RouterKind::Algorithm2 | RouterKind::Algorithm4
        ) && self.config.policy == WildcardPolicy::Zero
            && self.config.fault_handling == FaultHandling::Drop
    }

    /// Resolves [`NextHopMode::Auto`] under the current memory cap:
    /// the fallback tier where no next-hop tier applies, else dense when
    /// it fits, else the compressed cursor, and the fallback again only
    /// if the `2d` ports do not fit the `u8` encoding.
    fn resolve_auto(&self) -> FastPath {
        if !self.next_hop_applies() {
            return FastPath::Fallback;
        }
        if let Some(table) = NextHopTable::build(
            self.space,
            self.directed,
            self.config.threads,
            self.table_cap,
        ) {
            return FastPath::Dense(table);
        }
        match CompressedNextHop::new(self.space, self.directed) {
            Some(engine) => FastPath::Compressed(engine),
            None => FastPath::Fallback,
        }
    }

    /// Rebuilds the auto-selected tier under a different dense-table
    /// memory cap: dense when the table fits `bytes`, otherwise the
    /// compressed cursor (use [`ShardedSimulation::with_next_hop`] to
    /// force a specific tier).
    pub fn with_table_memory_cap(mut self, bytes: usize) -> Self {
        self.table_cap = bytes;
        self.path = self.resolve_auto();
        self
    }

    /// Forces a specific forwarding tier (see [`NextHopMode`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Unsupported`] if a next-hop tier is forced on
    /// a configuration it does not implement (see [`NextHopMode`]), or
    /// cannot be built for this space — e.g. [`NextHopMode::Dense`] on a
    /// space whose `d^{2k}` port array is unbuildable.
    ///
    /// # Examples
    ///
    /// ```
    /// use debruijn_core::DeBruijn;
    /// use debruijn_net::shard::{NextHopMode, ShardedSimulation};
    /// use debruijn_net::{workload, SimConfig};
    ///
    /// let space = DeBruijn::new(2, 6)?;
    /// let traffic = workload::uniform_burst(space, 100, 7);
    /// let dense = ShardedSimulation::new(space, SimConfig::default(), 2)?;
    /// let compressed = ShardedSimulation::new(space, SimConfig::default(), 2)?
    ///     .with_next_hop(NextHopMode::Compressed)?;
    /// // The tiers are byte-equivalent: same ports, same report.
    /// assert_eq!(dense.run(&traffic), compressed.run(&traffic));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn with_next_hop(mut self, mode: NextHopMode) -> Result<Self, NetError> {
        if matches!(mode, NextHopMode::Dense | NextHopMode::Compressed) && !self.next_hop_applies()
        {
            return Err(NetError::Unsupported {
                what: format!(
                    "{} next-hop forwarding serves the optimal routers under the zero policy \
                     with drop-on-fault; router '{}', policy '{}' and {:?} fault handling need \
                     the fallback tier",
                    format!("{mode:?}").to_lowercase(),
                    self.config.router.name(),
                    self.config.policy.name(),
                    self.config.fault_handling
                ),
            });
        }
        self.path = match mode {
            NextHopMode::Auto => self.resolve_auto(),
            NextHopMode::Dense => {
                match NextHopTable::build(
                    self.space,
                    self.directed,
                    self.config.threads,
                    usize::MAX,
                ) {
                    Some(table) => FastPath::Dense(table),
                    None => {
                        return Err(NetError::Unsupported {
                            what: format!(
                                "dense next-hop table is unbuildable for DG({},{})",
                                self.space.d(),
                                self.space.k()
                            ),
                        })
                    }
                }
            }
            NextHopMode::Compressed => match CompressedNextHop::new(self.space, self.directed) {
                Some(engine) => FastPath::Compressed(engine),
                None => {
                    return Err(NetError::Unsupported {
                        what: format!(
                            "compressed next-hop needs 2d ports to fit a byte (d = {})",
                            self.space.d()
                        ),
                    })
                }
            },
            NextHopMode::Fallback => FastPath::Fallback,
        };
        Ok(self)
    }

    /// The resolved forwarding tier (never [`NextHopMode::Auto`]).
    pub fn next_hop_mode(&self) -> NextHopMode {
        match self.path {
            FastPath::Dense(_) => NextHopMode::Dense,
            FastPath::Compressed(_) => NextHopMode::Compressed,
            FastPath::Fallback => NextHopMode::Fallback,
        }
    }

    /// Declares the given nodes faulty: messages drop at them, or, under
    /// [`FaultHandling::SourceReroute`], sources route around them.
    ///
    /// # Errors
    ///
    /// Returns an error if a fault word is not in the simulated space, or
    /// if rerouting needs the explicit graph and it cannot be
    /// materialized.
    pub fn with_faults(mut self, faults: Vec<Word>) -> Result<Self, NetError> {
        for f in &faults {
            if !self.space.contains(f) {
                return Err(NetError::ForeignWord {
                    word: f.to_string(),
                });
            }
        }
        self.faults = faults
            .iter()
            .map(|f| u64::try_from(f.rank()).expect("rank fits: order fits u64"))
            .collect();
        self.reroute = None;
        if self.config.fault_handling == FaultHandling::SourceReroute && !faults.is_empty() {
            let graph = if self.directed {
                DebruijnGraph::directed(self.space)?
            } else {
                DebruijnGraph::undirected(self.space)?
            };
            self.reroute = Some((graph, faults));
        }
        Ok(self)
    }

    /// The simulated parameter space.
    pub fn space(&self) -> DeBruijn {
        self.space
    }

    /// The effective (clamped) shard count.
    pub fn shards(&self) -> usize {
        self.partition.shards()
    }

    /// Whether the `O(1)` dense next-hop table is active (vs the
    /// compressed cursor or the source-routed fallback; see
    /// [`ShardedSimulation::next_hop_mode`] for the full picture).
    pub fn uses_table(&self) -> bool {
        matches!(self.path, FastPath::Dense(_))
    }

    /// Runs the simulation, returning aggregate statistics. For a fixed
    /// config, traffic, and (clamped) shard count the report is
    /// identical for every `threads` value; and because each shard's
    /// tick batch is processed in canonical message order, it is in
    /// fact identical for every shard count too.
    ///
    /// # Panics
    ///
    /// Panics if an injection references a word outside the simulated
    /// space.
    pub fn run(&self, traffic: &[Injection]) -> SimReport {
        self.run_recorded(traffic, &mut NullRecorder)
    }

    /// Like [`ShardedSimulation::run`], but replays every [`NetEvent`]
    /// into `recorder` after the run, sorted by `(tick, message id)` —
    /// a canonical order independent of shard and thread count, in which
    /// event times never decrease. (Events are buffered per shard and
    /// delivered at the end, not streamed live; recorded runs trade peak
    /// throughput and memory for observability.)
    ///
    /// # Panics
    ///
    /// Panics if an injection references a word outside the simulated
    /// space, or if the traffic exceeds `u32::MAX` messages.
    pub fn run_recorded(&self, traffic: &[Injection], recorder: &mut dyn Recorder) -> SimReport {
        let (report, _, _) = self.run_inner(traffic, recorder, None);
        report
    }

    /// Like [`ShardedSimulation::run_recorded`], but with the engine
    /// profiler armed: workers time each phase of the windowed loop
    /// (mailbox drain, batch merge, compute, barrier wait, report
    /// merge) and a deterministic seed-hashed [`SpanSampler`] tags
    /// ~1/`sample_every` messages with per-hop causal spans.
    ///
    /// The profiler observes without perturbing: the report, trace,
    /// and metrics streams are byte-identical to an unprofiled run
    /// (the sampler and timers never touch simulation state), while
    /// the returned [`EngineProfile`] carries wall-clock phase totals,
    /// per-shard imbalance, barrier spin/yield accounting, and the
    /// sampled critical paths.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`ShardedSimulation::run_recorded`].
    pub fn run_profiled(
        &self,
        traffic: &[Injection],
        recorder: &mut dyn Recorder,
        profile: &ProfileConfig,
    ) -> (SimReport, EngineProfile) {
        let shared = ProfShared::new(
            self.worker_count(),
            self.shards(),
            self.config.seed,
            profile,
        );
        let started = std::time::Instant::now();
        let (report, metas, report_nanos) = self.run_inner(traffic, recorder, Some(&shared));
        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        (report, shared.finish(wall, report_nanos, metas))
    }

    /// The worker-thread count a run will use: the configured thread
    /// count, clamped to the shard count (a shard is owned by exactly
    /// one worker).
    fn worker_count(&self) -> usize {
        debruijn_parallel::effective_threads(self.config.threads)
            .min(self.shards())
            .max(1)
    }

    fn run_inner(
        &self,
        traffic: &[Injection],
        recorder: &mut dyn Recorder,
        prof: Option<&ProfShared>,
    ) -> (SimReport, Vec<ShardMeta>, u64) {
        let observed = Observe::of(recorder);
        let sampler = prof.and_then(|p| p.sampler());
        assert!(
            u32::try_from(traffic.len()).is_ok(),
            "sharded message ids are u32"
        );
        let s = self.shards();

        // Flat link arrays when the whole space's slots fit a fixed
        // budget; hash/tree maps beyond that.
        const DENSE_LINK_MEMORY_CAP: u64 = 1 << 30;
        let ports = if self.directed {
            usize::from(self.space.d())
        } else {
            2 * usize::from(self.space.d())
        };
        let dense_links = self
            .ranks
            .order()
            .checked_mul(ports as u64 * 16)
            .is_some_and(|bytes| bytes <= DENSE_LINK_MEMORY_CAP);

        let mut states: Vec<ShardState> = (0..s)
            .map(|sid| {
                let base = self.partition.base(sid);
                let owned = (self.partition.base(sid + 1) - base) as usize;
                let links = if dense_links {
                    LinkState::Dense {
                        base,
                        ports,
                        free: vec![0; owned * ports],
                        loads: vec![0; owned * ports],
                    }
                } else {
                    LinkState::Sparse {
                        free: HashMap::new(),
                        loads: BTreeMap::new(),
                    }
                };
                ShardState {
                    sid,
                    links,
                    rr: HashMap::new(),
                    report: SimReport::default(),
                    events: Vec::new(),
                    queue: TickQueue::default(),
                    cscratch: CompressedScratch::new(),
                    steps: 0,
                    spans: Vec::new(),
                    deliveries: Vec::new(),
                }
            })
            .collect();

        // Seed every shard's queue with its injections, in traffic
        // order (the canonical id order re-established per tick).
        for (index, inj) in traffic.iter().enumerate() {
            assert!(
                self.space.contains(&inj.source) && self.space.contains(&inj.destination),
                "injection endpoints must be vertices of the simulated space"
            );
            let src = u64::try_from(inj.source.rank()).expect("order fits u64");
            let dst = u64::try_from(inj.destination.rank()).expect("order fits u64");
            states[self.partition.owner(src)].queue.push(
                inj.time,
                Flight {
                    id: index as u32,
                    at: src,
                    dst,
                    prev: src,
                    injected_at: inj.time,
                    hops: 0,
                    dist: 0,
                    shortest: 0,
                    sampled: false,
                },
            );
        }
        // The fallback tier's routing-path fields: written once, as §3's
        // sources would, and only read during the run.
        let routes = match self.path {
            FastPath::Fallback => self.source_routes(traffic),
            FastPath::Dense(_) | FastPath::Compressed(_) => Vec::new(),
        };

        // Hand each worker its (static, round-robin) set of shards.
        let workers = self.worker_count();
        let worker_states: Vec<Mutex<Vec<ShardState>>> = {
            let mut per: Vec<Vec<ShardState>> = (0..workers).map(|_| Vec::new()).collect();
            for st in states.into_iter() {
                per[st.sid % workers].push(st);
            }
            per.into_iter().map(Mutex::new).collect()
        };
        let mailboxes: Vec<Mailbox> = (0..s * s).map(|_| Mailbox::new()).collect();
        let barrier = debruijn_parallel::TickBarrier::new(workers);

        // The conservative window: a message forwarded at tick `t`
        // arrives at `t + lookahead` at the earliest, so every event in
        // `[T, T + lookahead)` is processable without coordination —
        // one barrier crossing per window instead of per tick.
        // (`new` validated lookahead >= 1.)
        let lookahead = self.config.link.service + self.config.link.latency;

        debruijn_parallel::run_workers(workers, |w| {
            // The lap timer exists only on profiled runs; the hot path
            // otherwise branches on `None` and never reads a clock.
            let mut timer = prof.map(|shared| shared.begin(w));
            let sync = |w: usize, local: u64, timer: &mut Option<WorkerTimer>| match timer.as_mut()
            {
                Some(t) => {
                    let next = barrier.sync_min_timed(w, local, t.barrier_mut());
                    // The barrier accounts for its own wait: restart
                    // the lap clock so none of it bleeds into Mailbox.
                    t.reset();
                    next
                }
                None => barrier.sync_min(w, local),
            };
            let mut states = worker_states[w].lock().expect("worker owns its shards");
            let mut tick = {
                let local = states.iter().map(|st| st.queue.next_tick()).min();
                sync(w, local.unwrap_or(u64::MAX), &mut timer)
            };
            // The mailbox parity of the current window: every worker
            // crosses the same barriers, so all agree on it.
            let mut parity = 0;
            while tick != u64::MAX {
                if let Some(t) = timer.as_mut() {
                    t.window();
                }
                let window_end = tick.saturating_add(lookahead);
                let mut local_min = u64::MAX;
                for st in states.iter_mut() {
                    // Drain what the previous window sent, in fixed
                    // sender order. Those entries carry ticks at or past
                    // that window's end, and no arrival can land inside
                    // the current window, so one drain up front covers
                    // all its ticks.
                    for src in 0..s {
                        // SAFETY: this worker owns shard `st.sid`, the
                        // mailbox's destination, and `parity ^ 1` is the
                        // previous window's parity.
                        unsafe {
                            mailboxes[src * s + st.sid].drain_into(parity ^ 1, &mut st.queue)
                        };
                    }
                    if let Some(t) = timer.as_mut() {
                        t.lap(Phase::Mailbox, st.sid);
                    }
                    while let Some((now, mut batch)) = st.queue.pop_before(window_end) {
                        // Canonical processing order: message id. This
                        // makes link contention independent of how the
                        // batch was assembled, hence of S and threads.
                        let merged = batch.len() > 1;
                        sort_by_id(&mut batch);
                        if let Some(t) = timer.as_mut().filter(|_| merged) {
                            t.lap(Phase::Merge, st.sid);
                        }
                        for flight in batch.drain(..) {
                            let sent = self.step(
                                st,
                                now,
                                flight,
                                &routes,
                                &mut local_min,
                                observed,
                                sampler,
                            );
                            if let Some((dshard, entry)) = sent {
                                // SAFETY: this worker owns shard `st.sid`,
                                // the mailbox's source, and `parity` is the
                                // current window's.
                                unsafe { mailboxes[st.sid * s + dshard].push(parity, entry) };
                            }
                        }
                        if let Some(t) = timer.as_mut() {
                            t.lap(Phase::Compute, st.sid);
                        }
                        st.queue.recycle(batch);
                    }
                    local_min = local_min.min(st.queue.next_tick());
                }
                tick = sync(w, local_min, &mut timer);
                parity ^= 1;
            }
        });

        // Everything below is the Report phase: the single-threaded
        // merge and (when observed) the canonical event replay.
        let report_started = prof.map(|_| std::time::Instant::now());

        // Deterministic merge: shards in index order; every accumulator
        // is a sum, a max, or a BTreeMap fold (the same shape the
        // metrics registry's GaugeMerge uses), so the merged report is
        // independent of thread interleaving by construction.
        let mut all: Vec<ShardState> = worker_states
            .into_iter()
            .flat_map(|m| m.into_inner().expect("workers done"))
            .collect();
        all.sort_by_key(|st| st.sid);

        let mut report = SimReport {
            total_links: self.count_links(),
            ..SimReport::default()
        };
        let mut events: Vec<NetEvent> = Vec::new();
        let mut metas: Vec<ShardMeta> = Vec::new();
        for mut st in all {
            if prof.is_some() {
                metas.push(ShardMeta {
                    sid: st.sid,
                    steps: st.steps,
                    spans: std::mem::take(&mut st.spans),
                    deliveries: std::mem::take(&mut st.deliveries),
                });
            }
            let part = st.report;
            report.injected += part.injected;
            report.delivered += part.delivered;
            report.dropped += part.dropped;
            for (reason, count) in part.dropped_by_reason {
                *report.dropped_by_reason.entry(reason).or_insert(0) += count;
            }
            for (hops, count) in part.hop_histogram {
                *report.hop_histogram.entry(hops).or_insert(0) += count;
            }
            report.total_hops += part.total_hops;
            report.latency_total += part.latency_total;
            report.latency_max = report.latency_max.max(part.latency_max);
            report.makespan = report.makespan.max(part.makespan);
            report.max_queue_wait = report.max_queue_wait.max(part.max_queue_wait);
            report.total_queue_wait += part.total_queue_wait;
            st.links.merge_loads(&self.ranks, &mut report.link_loads);
            if observed.any() {
                events.extend(st.events);
            }
        }
        // Conservation: every message ends delivered or dropped, and
        // every drop has exactly one reason.
        assert_eq!(
            report.injected,
            report.delivered + report.dropped,
            "injected messages must be delivered or dropped"
        );
        assert_eq!(
            report.dropped as u64,
            report.dropped_by_reason.values().sum::<u64>(),
            "every drop must have one reason"
        );
        if observed.any() {
            // Canonical replay order. A message occupies one node per
            // tick, so `(time, message)` collides only for the
            // Inject/Wildcard/Forward triple of a single shard, whose
            // relative order the stable sort preserves.
            events.sort_by_key(|e| (e.time(), e.message()));
            for event in &events {
                recorder.record(event);
            }
        }
        let report_nanos = report_started.map_or(0, |t| {
            u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        (report, metas, report_nanos)
    }

    /// Processes one flight at `now`: injection bookkeeping, fault and
    /// TTL drops, delivery, or one forward hop. A hop into another shard
    /// is returned as that shard and its `(arrival tick, flight)` entry,
    /// for the caller's mailbox.
    #[allow(clippy::too_many_arguments)]
    fn step(
        &self,
        st: &mut ShardState,
        now: u64,
        flight: Flight,
        routes: &[Option<RoutePath>],
        local_min: &mut u64,
        observed: Observe,
        sampler: Option<SpanSampler>,
    ) -> Option<(usize, (u64, Flight))> {
        let mut flight = flight;
        st.steps += 1;
        // The fallback tier's routing-path field; the next-hop tiers
        // carry none.
        let route = match &self.path {
            FastPath::Fallback => routes[flight.id as usize].as_ref(),
            FastPath::Dense(_) | FastPath::Compressed(_) => None,
        };
        if flight.hops == 0 {
            st.report.injected += 1;
            if let Some(sampler) = &sampler {
                // Tag once at injection: a pure function of (seed, id),
                // so the sampled set is shard/thread-invariant.
                flight.sampled = sampler.sampled(flight.id);
            }
            if self.faults.contains(&flight.at) {
                self.drop_flight(st, now, &flight, DropReason::FaultySource, observed);
                return None;
            }
            match &self.path {
                FastPath::Compressed(engine) => {
                    // Arm the per-flight cursor: one distance solve at
                    // injection, then O(1)–O(d) per hop.
                    flight.dist = engine.distance(flight.at, flight.dst, &mut st.cscratch);
                }
                FastPath::Fallback if route.is_none() => {
                    self.drop_flight(st, now, &flight, DropReason::NoRoute, observed);
                    return None;
                }
                FastPath::Dense(_) | FastPath::Fallback => {}
            }
            if observed.inject || observed.deliver {
                // Deliver events report the stretch baseline, so the
                // distance solve is needed for either class.
                flight.shortest = match &self.path {
                    FastPath::Compressed(_) => flight.dist,
                    _ => self.shortest(flight.at, flight.dst),
                };
            }
            if observed.inject {
                st.events.push(NetEvent::Inject {
                    time: now,
                    message: flight.id as usize,
                    source: self.word(flight.at),
                    destination: self.word(flight.dst),
                    route_len: route.map_or(0, RoutePath::len),
                    shortest: flight.shortest as usize,
                });
            }
            if self.reroute.is_some() && observed.reroute {
                st.events.push(NetEvent::Reroute {
                    time: now,
                    message: flight.id as usize,
                    at: self.word(flight.at),
                });
            }
        } else if self.faults.contains(&flight.at) {
            self.drop_flight(st, now, &flight, DropReason::FaultyNode, observed);
            return None;
        }
        // A source-routed message arrives when its route is spent (the
        // trivial route may pass the destination early); a next-hop one
        // when it reaches the destination.
        let arrived = match route {
            Some(route) => flight.hops as usize == route.len(),
            None => flight.at == flight.dst,
        };
        if arrived {
            if flight.sampled {
                st.deliveries.push(SampledDelivery {
                    message: flight.id,
                    injected_at: flight.injected_at,
                    delivered_at: now,
                    hops: flight.hops,
                });
            }
            st.report.delivered += 1;
            st.report.total_hops += u64::from(flight.hops);
            *st.report
                .hop_histogram
                .entry(flight.hops as usize)
                .or_insert(0) += 1;
            let latency = now - flight.injected_at;
            st.report.latency_total += latency;
            st.report.latency_max = st.report.latency_max.max(latency);
            st.report.makespan = st.report.makespan.max(now);
            if observed.deliver {
                st.events.push(NetEvent::Deliver {
                    time: now,
                    message: flight.id as usize,
                    hops: flight.hops as usize,
                    latency,
                    shortest: flight.shortest as usize,
                });
            }
            return None;
        }
        if self.config.ttl > 0 && flight.hops as usize >= self.config.ttl {
            self.drop_flight(st, now, &flight, DropReason::Ttl, observed);
            return None;
        }

        let port = match (&self.path, route) {
            (_, Some(route)) => self.source_routed_port(st, now, &flight, route, observed),
            (FastPath::Dense(table), None) => table.next_hop(flight.at, flight.dst),
            (FastPath::Compressed(engine), None) => {
                let port = engine.advance(flight.at, flight.dst, flight.dist, &mut st.cscratch);
                flight.dist -= 1;
                port
            }
            (FastPath::Fallback, None) => unreachable!("the fallback tier always has a route"),
        };
        let next = port_target(&self.ranks, flight.at, port);
        let service = self.config.link.service;
        let depart = st
            .links
            .book(&self.ranks, flight.at, port, next, now, service);
        let arrive = depart + service + self.config.link.latency;
        let wait = depart - now;
        st.report.total_queue_wait += wait;
        st.report.max_queue_wait = st.report.max_queue_wait.max(wait);
        if observed.forward {
            st.events.push(NetEvent::Forward {
                time: now,
                message: flight.id as usize,
                hop: flight.hops as usize,
                from: self.word(flight.at),
                to: self.word(next),
                departs: depart,
                arrives: arrive,
                queue_wait: wait,
                queue_depth: wait.div_ceil(service.max(1)) as usize,
            });
        }

        let forwarded = Flight {
            at: next,
            prev: flight.at,
            hops: flight.hops + 1,
            ..flight
        };
        *local_min = (*local_min).min(arrive);
        let dshard = self.partition.owner(next);
        if flight.sampled {
            st.spans.push(HopSpan {
                message: flight.id,
                hop: flight.hops,
                start: now,
                departs: depart,
                arrives: arrive,
                from_shard: st.sid as u32,
                to_shard: dshard as u32,
            });
        }
        if dshard == st.sid {
            st.queue.push(arrive, forwarded);
            None
        } else {
            Some((dshard, (arrive, forwarded)))
        }
    }

    /// Fallback next hop: pops step `hops` of the message's routing-path
    /// field and resolves a `*` digit with the configured policy,
    /// returning the port of the shift it takes.
    fn source_routed_port(
        &self,
        st: &mut ShardState,
        now: u64,
        flight: &Flight,
        route: &RoutePath,
        observed: Observe,
    ) -> u8 {
        let step = route.steps()[flight.hops as usize];
        let digit = match step.digit {
            Digit::Exact(b) => b,
            Digit::Any => {
                let b = self.resolve_wildcard(st, flight, step.shift);
                if observed.wildcard {
                    st.events.push(NetEvent::WildcardResolved {
                        time: now,
                        message: flight.id as usize,
                        at: self.word(flight.at),
                        shift: step.shift,
                        digit: b,
                        policy: self.config.policy,
                    });
                }
                b
            }
        };
        match step.shift {
            ShiftKind::Left => digit,
            ShiftKind::Right => self.space.d() + digit,
        }
    }

    /// §3's routing-path field of every message, computed once before
    /// the run (in parallel over `config.threads`): the configured
    /// router's route, a seeded pick among all shortest routes for
    /// [`RouterKind::Multipath`], or a BFS detour on the surviving graph
    /// under [`FaultHandling::SourceReroute`]. `None` marks a message
    /// without a surviving route, and one whose source is faulty (it
    /// drops before needing one).
    fn source_routes(&self, traffic: &[Injection]) -> Vec<Option<RoutePath>> {
        debruijn_parallel::map_range_with(
            self.config.threads,
            traffic.len(),
            RoutingScratch::new,
            |scratch, i| {
                let Injection {
                    source,
                    destination,
                    ..
                } = &traffic[i];
                let at = u64::try_from(source.rank()).expect("order fits u64");
                if self.faults.contains(&at) {
                    return None;
                }
                if let Some((graph, faults)) = &self.reroute {
                    return fault::route_avoiding(graph, source, destination, faults);
                }
                if self.config.router == RouterKind::Multipath && source != destination {
                    let mut all = routing::all_shortest_routes(source, destination);
                    let pick = self
                        .message_rng(i as u32, MULTIPATH_SALT)
                        .below_usize(all.len());
                    return Some(all.swap_remove(pick));
                }
                let mut route = RoutePath::empty();
                self.config
                    .router
                    .route_into(source, destination, scratch, &mut route);
                Some(route)
            },
        )
    }

    /// A generator seeded by `(seed, message, salt)` alone, so its draws
    /// are the same for every shard layout — no shared RNG stream whose
    /// order would follow the event interleaving.
    fn message_rng(&self, id: u32, salt: u64) -> SplitMix64 {
        SplitMix64::new(
            self.config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(id) << 16)
                .wrapping_add(salt),
        )
    }

    /// Resolves a wildcard digit at `flight.at` under the configured
    /// policy; the random policy draws from the message's generator
    /// salted with the hop index.
    fn resolve_wildcard(&self, st: &mut ShardState, flight: &Flight, shift: ShiftKind) -> u8 {
        let at = flight.at;
        let d = self.space.d();
        match self.config.policy {
            WildcardPolicy::Zero => 0,
            WildcardPolicy::Random => self.message_rng(flight.id, u64::from(flight.hops)).digit(d),
            WildcardPolicy::RoundRobin => {
                let counter = st.rr.entry(at).or_insert(0);
                let b = *counter % d;
                *counter = (*counter + 1) % d;
                b
            }
            WildcardPolicy::LeastLoaded => (0..d)
                .min_by_key(|&b| {
                    let port = match shift {
                        ShiftKind::Left => b,
                        ShiftKind::Right => d + b,
                    };
                    let next = port_target(&self.ranks, at, port);
                    st.links.free_time(&self.ranks, at, port, next)
                })
                .expect("d >= 2"),
        }
    }

    fn drop_flight(
        &self,
        st: &mut ShardState,
        now: u64,
        flight: &Flight,
        reason: DropReason,
        observed: Observe,
    ) {
        st.report.dropped += 1;
        *st.report
            .dropped_by_reason
            .entry(reason.name())
            .or_insert(0) += 1;
        if observed.drop {
            st.events.push(NetEvent::Drop {
                time: now,
                message: flight.id as usize,
                reason,
                at: self.word(flight.at),
                upstream: (flight.hops > 0).then(|| self.word(flight.prev)),
            });
        }
    }

    /// Fault-free shortest distance under the configured model, via the
    /// dense table when present (an `O(k)` walk) or the distance
    /// engines. (The compressed tier answers this from its own cursor
    /// initializer before reaching here.)
    fn shortest(&self, src: u64, dst: u64) -> u32 {
        match &self.path {
            FastPath::Dense(table) => table.walk_distance(src, dst) as u32,
            FastPath::Compressed(_) | FastPath::Fallback => {
                let x = self.word(src);
                let y = self.word(dst);
                let dist = if self.directed {
                    distance::directed::distance(&x, &y)
                } else {
                    distance::undirected::distance(&x, &y)
                };
                dist as u32
            }
        }
    }

    fn word(&self, rank: u64) -> Word {
        self.space
            .word_from_rank(u128::from(rank))
            .expect("rank below order")
    }

    /// Total directed links of the simulated network (0 when the space
    /// is too large to enumerate cheaply).
    fn count_links(&self) -> usize {
        const ENUMERATION_LIMIT: usize = 1 << 16;
        let Some(n) = self.space.order_usize() else {
            return 0;
        };
        if n > ENUMERATION_LIMIT {
            return 0;
        }
        self.space
            .vertices()
            .map(|w| {
                if self.directed {
                    self.space.directed_out_neighbors(&w).len()
                } else {
                    self.space.undirected_neighbors(&w).len()
                }
            })
            .sum()
    }
}

/// The engine's tests, and the helpers `sim::tests` shares.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::record::{FanoutRecorder, InMemoryRecorder, JsonlRecorder};
    use crate::workload;

    pub(crate) fn space(d: u8, k: usize) -> DeBruijn {
        DeBruijn::new(d, k).expect("valid parameters")
    }

    /// Every recorded event, in delivery order.
    #[derive(Default)]
    struct Collect(Vec<NetEvent>);

    impl Recorder for Collect {
        fn record(&mut self, event: &NetEvent) {
            self.0.push(event.clone());
        }
    }

    /// A two-shard simulation on the given tier, with the nodes of rank
    /// `faults` declared faulty.
    pub(crate) fn sim(
        space: DeBruijn,
        config: SimConfig,
        mode: NextHopMode,
        faults: &[u128],
    ) -> ShardedSimulation {
        let faults = faults
            .iter()
            .map(|&r| space.word_from_rank(r).expect("rank in range"))
            .collect();
        ShardedSimulation::new(space, config, 2)
            .and_then(|sim| sim.with_next_hop(mode))
            .and_then(|sim| sim.with_faults(faults))
            .expect("supported config")
    }

    /// Runs `traffic` and returns the report with every recorded event.
    pub(crate) fn collected(
        sim: &ShardedSimulation,
        traffic: &[Injection],
    ) -> (SimReport, Vec<NetEvent>) {
        let mut events = Collect::default();
        let report = sim.run_recorded(traffic, &mut events);
        (report, events.0)
    }

    /// Runs the `{1,2,4}²` shards × threads grid and asserts identical
    /// reports, JSONL traces and metrics in every cell, with event times
    /// that never decrease.
    fn run_grid(
        space: DeBruijn,
        config: SimConfig,
        faults: &[Word],
        traffic: &[Injection],
        mode: NextHopMode,
    ) {
        let mut baseline: Option<(SimReport, Vec<u8>, InMemoryRecorder)> = None;
        for shards in [1usize, 2, 4] {
            for threads in [1usize, 2, 4] {
                let mut cfg = config;
                cfg.threads = threads;
                let sim = ShardedSimulation::new(space, cfg, shards)
                    .and_then(|sim| sim.with_next_hop(mode))
                    .and_then(|sim| sim.with_faults(faults.to_vec()))
                    .expect("supported config");
                let mut jsonl = JsonlRecorder::new(Vec::new());
                let mut metrics = InMemoryRecorder::new();
                let mut events = Collect::default();
                let mut fan = FanoutRecorder::new();
                fan.push(&mut jsonl);
                fan.push(&mut metrics);
                fan.push(&mut events);
                let report = sim.run_recorded(traffic, &mut fan);
                drop(fan);
                let at = format!("{mode:?} S={shards} T={threads}");
                assert!(
                    events.0.windows(2).all(|w| w[0].time() <= w[1].time()),
                    "event times decrease at {at}"
                );
                let trace = jsonl.finish().expect("in-memory trace never fails");
                match &baseline {
                    None => baseline = Some((report, trace, metrics)),
                    Some((r, t, m)) => {
                        assert_eq!(&report, r, "report differs at {at}");
                        assert_eq!(&trace, t, "trace differs at {at}");
                        assert_eq!(&metrics, m, "metrics differ at {at}");
                    }
                }
            }
        }
    }

    /// Tentpole determinism contract: the final report, the JSONL trace
    /// (byte for byte), and the metrics snapshot are identical for
    /// every shard/thread combination.
    #[test]
    fn report_trace_and_metrics_identical_across_shards_and_threads() {
        let space = space(2, 7);
        let traffic = workload::uniform_random(space, 400, 11);
        run_grid(
            space,
            SimConfig::default(),
            &[],
            &traffic,
            NextHopMode::Auto,
        );
    }

    /// Recorded events come in time order on every tier, also when
    /// faulty sources drop at injection — a streaming consumer such as
    /// the flight recorder sees the run as it happened.
    #[test]
    fn recorded_event_times_never_decrease() {
        let space = space(2, 6);
        let faults = [space.word_from_rank(0).expect("rank 0 exists")];
        let traffic = workload::uniform_random(space, 400, 3);
        for mode in [
            NextHopMode::Dense,
            NextHopMode::Compressed,
            NextHopMode::Fallback,
        ] {
            run_grid(space, SimConfig::default(), &faults, &traffic, mode);
        }
    }

    /// Same contract on the compressed tier — and because the
    /// compressed cursor reproduces the dense table's ports exactly,
    /// the compressed grid's baseline equals the dense run bit for bit.
    #[test]
    fn compressed_tier_is_deterministic_and_byte_equal_to_dense() {
        let space = space(2, 7);
        let traffic = workload::uniform_random(space, 400, 11);
        for router in [RouterKind::Algorithm2, RouterKind::Algorithm1] {
            let config = SimConfig {
                router,
                ..SimConfig::default()
            };
            run_grid(space, config, &[], &traffic, NextHopMode::Compressed);

            let run = |mode: NextHopMode, shards: usize, threads: usize| {
                let cfg = SimConfig { threads, ..config };
                let sim = ShardedSimulation::new(space, cfg, shards)
                    .expect("supported config")
                    .with_next_hop(mode)
                    .expect("tier available");
                let mut jsonl = JsonlRecorder::new(Vec::new());
                let report = sim.run_recorded(&traffic, &mut jsonl);
                (report, jsonl.finish().expect("in-memory trace"))
            };
            let dense = run(NextHopMode::Dense, 1, 1);
            let compressed = run(NextHopMode::Compressed, 4, 4);
            assert_eq!(dense, compressed, "router {router:?}");
        }
    }

    /// Same contract on the source-routed fallback tier, for the routers
    /// and fault handling only it serves and for every wildcard policy.
    #[test]
    fn fallback_path_is_deterministic_too() {
        let space = space(3, 4);
        let traffic = workload::uniform_burst(space, 300, 5);
        let faults = [space.word_from_rank(11).expect("rank in range")];
        let routers = [RouterKind::Trivial, RouterKind::Multipath].map(|router| SimConfig {
            router,
            ..SimConfig::default()
        });
        let policies = WildcardPolicy::all().map(|policy| SimConfig {
            router: RouterKind::Algorithm4,
            policy,
            ..SimConfig::default()
        });
        for config in routers.into_iter().chain(policies) {
            run_grid(space, config, &[], &traffic, NextHopMode::Fallback);
        }
        let reroute = SimConfig {
            fault_handling: FaultHandling::SourceReroute,
            ..SimConfig::default()
        };
        run_grid(space, reroute, &faults, &traffic, NextHopMode::Auto);
    }

    /// Auto degrades dense → compressed (not fallback) above the
    /// memory cap, and the zipf burst is deterministic across the whole
    /// shard/thread grid on that tier.
    #[test]
    fn auto_selects_compressed_above_the_cap_and_zipf_is_deterministic() {
        let space = space(2, 7);
        let sim = ShardedSimulation::new(space, SimConfig::default(), 2)
            .expect("supported config")
            .with_table_memory_cap(0);
        assert_eq!(sim.next_hop_mode(), NextHopMode::Compressed);

        let traffic = workload::zipf(space, 400, 1.1, 7);
        run_grid(
            space,
            SimConfig::default(),
            &[],
            &traffic,
            NextHopMode::Auto,
        );
        run_grid(
            space,
            SimConfig::default(),
            &[],
            &traffic,
            NextHopMode::Compressed,
        );
    }

    /// Determinism at burst density: a Zipf burst whose first window
    /// alone sends more than 256 entries (the largest capacity of the
    /// fixed ring mailboxes this engine once had) over every shard pair
    /// that carries traffic, run on shards `{1, 2, 8}` × threads
    /// `{1, 2}` with identical reports and metrics.
    #[test]
    fn zipf_burst_is_deterministic_at_mailbox_density() {
        let space = space(2, 8);
        let traffic = workload::zipf(space, 40_000, 1.0, 5);
        // Count the first window's crossings at 8 shards: every message
        // takes its first hop at tick 0.
        let table = NextHopTable::build(space, false, 1, usize::MAX).expect("256 nodes fit");
        let partition = Partition::new(256, 8);
        let mut pairs: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for inj in &traffic {
            let (at, dst) = (inj.source.rank() as u64, inj.destination.rank() as u64);
            let next = table.apply(at, table.next_hop(at, dst));
            let (from, to) = (partition.owner(at), partition.owner(next));
            if from != to {
                *pairs.entry((from, to)).or_insert(0) += 1;
            }
        }
        let sparsest = pairs.values().min().copied().unwrap_or(0);
        assert!(
            sparsest > 256,
            "sparsest crossing pair carries {sparsest}: {pairs:?}"
        );

        let mut baseline: Option<(SimReport, InMemoryRecorder)> = None;
        for shards in [1usize, 2, 8] {
            for threads in [1usize, 2] {
                let config = SimConfig {
                    threads,
                    ..SimConfig::default()
                };
                let sim = ShardedSimulation::new(space, config, shards).expect("supported config");
                let mut metrics = InMemoryRecorder::new();
                let report = sim.run_recorded(&traffic, &mut metrics);
                assert_eq!(report.delivered, traffic.len());
                match &baseline {
                    None => baseline = Some((report, metrics)),
                    Some((r, m)) => {
                        assert_eq!(&report, r, "report differs at S={shards} T={threads}");
                        assert_eq!(&metrics, m, "metrics differ at S={shards} T={threads}");
                    }
                }
            }
        }
    }

    /// The acceptance-criteria run: DG(2,20) — a million nodes — stays
    /// on the compressed fast path (no word-router fallback) and its
    /// report is identical across `{1,4}` shards × `{1,4}` threads.
    #[test]
    fn dg_2_20_runs_compressed_with_shard_invariant_reports() {
        let space = space(2, 20);
        let traffic = workload::uniform_random(space, 500, 42);
        let mut baseline: Option<SimReport> = None;
        for shards in [1usize, 4] {
            for threads in [1usize, 4] {
                let config = SimConfig {
                    threads,
                    ..SimConfig::default()
                };
                let sim = ShardedSimulation::new(space, config, shards).expect("supported config");
                assert_eq!(
                    sim.next_hop_mode(),
                    NextHopMode::Compressed,
                    "a million nodes must not fall back to the word routers"
                );
                let report = sim.run(&traffic);
                assert_eq!(report.delivered, 500);
                assert!(report.mean_hops() <= 20.0, "within the diameter");
                match &baseline {
                    None => baseline = Some(report),
                    Some(b) => assert_eq!(&report, b, "S={shards} T={threads}"),
                }
            }
        }
    }

    fn flight(id: u32) -> Flight {
        Flight {
            id,
            at: 0,
            dst: 1,
            prev: 0,
            injected_at: 0,
            hops: 0,
            dist: 0,
            shortest: 0,
            sampled: false,
        }
    }

    /// Pops every pending batch as `(tick, ids)`.
    fn drain_queue(queue: &mut TickQueue) -> Vec<(u64, Vec<u32>)> {
        let mut out = Vec::new();
        while let Some((tick, batch)) = queue.pop_before(u64::MAX) {
            out.push((tick, batch.iter().map(|f| f.id).collect()));
            queue.recycle(batch);
        }
        out
    }

    /// A mailbox buffer takes a whole window's traffic — here three
    /// times the largest capacity of the fixed rings it replaced — and
    /// the next window's drain hands over every entry exactly once, in
    /// deposit order, while the current window's entries stay out of
    /// that drain.
    #[test]
    fn parity_mailbox_preserves_entries_without_spilling() {
        let mailbox = Mailbox::new();
        let total = 3 * 256 + 7;
        let mut queue = TickQueue::default();
        for window in 0..5u64 {
            let parity = (window & 1) as usize;
            if window < 4 {
                for i in 0..total {
                    let entry = (window * total + i, flight(i as u32));
                    // SAFETY: this thread is the only producer and
                    // consumer, and it alternates parity per window.
                    unsafe { mailbox.push(parity, entry) };
                }
            }
            // SAFETY: as above; `parity ^ 1` is the previous window's.
            unsafe { mailbox.drain_into(parity ^ 1, &mut queue) };
            let got = drain_queue(&mut queue);
            let want: Vec<(u64, Vec<u32>)> = match window {
                0 => Vec::new(),
                w => (0..total)
                    .map(|i| ((w - 1) * total + i, vec![i as u32]))
                    .collect(),
            };
            assert_eq!(got, want, "window {window}");
        }
    }

    /// Pushes below the calendar's base re-index it, also across a gap
    /// wider than the horizon, and every batch keeps its push order.
    #[test]
    fn tick_queue_accepts_pushes_behind_its_base() {
        let mut queue = TickQueue::default();
        for (tick, id) in [(10, 0), (12, 1), (5, 2), (10, 3), (3, 4), (5, 5)] {
            queue.push(tick, flight(id));
        }
        assert_eq!(queue.next_tick(), 3);
        assert_eq!(
            drain_queue(&mut queue),
            [
                (3, vec![4]),
                (5, vec![2, 5]),
                (10, vec![0, 3]),
                (12, vec![1])
            ]
        );
        let far = 3 * HORIZON;
        for (tick, id) in [(far, 0), (far + 1, 1), (7, 2), (far, 3), (6, 4)] {
            queue.push(tick, flight(id));
        }
        assert_eq!(
            drain_queue(&mut queue),
            [
                (6, vec![4]),
                (7, vec![2]),
                (far, vec![0, 3]),
                (far + 1, vec![1])
            ]
        );
        // A behind push that leaves part of the calendar in reach keeps
        // it, and moves the rest past the new horizon.
        for (tick, id) in [(HORIZON, 0), (2 * HORIZON - 1, 1), (HORIZON - 5, 2)] {
            queue.push(tick, flight(id));
        }
        assert_eq!(
            drain_queue(&mut queue),
            [
                (HORIZON - 5, vec![2]),
                (HORIZON, vec![0]),
                (2 * HORIZON - 1, vec![1])
            ]
        );
    }

    /// Ticks past the horizon wait in the ordered map without slots for
    /// the gap, and come back in order as the calendar reaches them.
    #[test]
    fn tick_queue_parks_ticks_past_the_horizon() {
        let mut queue = TickQueue::default();
        let ticks = [0, 1 << 40, HORIZON - 1, HORIZON, HORIZON + 1, (1 << 40) + 1];
        for (id, &tick) in ticks.iter().enumerate() {
            queue.push(tick, flight(id as u32));
        }
        assert!(queue.near.len() as u64 <= HORIZON, "no slots for the gap");
        assert_eq!(
            queue.far.len(),
            4,
            "HORIZON, HORIZON + 1 and the two far ticks"
        );
        assert_eq!(queue.pop_before(1).map(|(t, _)| t), Some(0));
        assert!(
            queue.pop_before(HORIZON - 1).is_none(),
            "limit is exclusive"
        );
        let rest: Vec<u64> = drain_queue(&mut queue).iter().map(|&(t, _)| t).collect();
        assert_eq!(
            rest,
            [HORIZON - 1, HORIZON, HORIZON + 1, 1 << 40, (1 << 40) + 1]
        );
    }

    #[test]
    fn empty_tick_queue_returns_u64_max() {
        let mut queue = TickQueue::default();
        assert_eq!(queue.next_tick(), u64::MAX);
        assert!(queue.pop_before(u64::MAX).is_none());
        queue.push(1 << 40, flight(0));
        assert_eq!(queue.next_tick(), 1 << 40);
        assert_eq!(drain_queue(&mut queue), [(1 << 40, vec![0])]);
        assert_eq!(queue.next_tick(), u64::MAX);
    }

    /// The calendar behaves exactly like an ordered map of batches under
    /// random pushes (behind the base, inside and past the horizon) and
    /// bounded pops.
    #[test]
    fn tick_queue_matches_an_ordered_map() {
        let mut rng = SplitMix64::new(99);
        let mut queue = TickQueue::default();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut now = 0u64;
        for id in 0..20_000u32 {
            if rng.below_u64(3) == 0 {
                let limit = now + rng.below_u64(HORIZON);
                let want = model
                    .first_key_value()
                    .filter(|(&t, _)| t < limit)
                    .map(|(&t, _)| t);
                let got = queue.pop_before(limit).map(|(t, batch)| {
                    let ids: Vec<u32> = batch.iter().map(|f| f.id).collect();
                    queue.recycle(batch);
                    (t, ids)
                });
                let want = want.map(|t| (t, model.remove(&t).expect("present")));
                assert_eq!(got, want, "pop before {limit}");
                if let Some((t, _)) = got {
                    now = t;
                }
            } else {
                let tick = match rng.below_u64(4) {
                    0 => now.saturating_sub(rng.below_u64(2 * HORIZON)),
                    1 => now + HORIZON + rng.below_u64(4 * HORIZON),
                    _ => now + rng.below_u64(64),
                };
                queue.push(tick, flight(id));
                model.entry(tick).or_default().push(id);
            }
            assert_eq!(
                queue.next_tick(),
                model.keys().next().copied().unwrap_or(u64::MAX)
            );
        }
    }

    /// The bucketed owner lookup equals `⌊x·S/n⌋` on every rank of small
    /// spaces and on sampled and boundary ranks of large ones, and the
    /// shard bases are its inverse.
    #[test]
    fn partition_owner_matches_the_rank_formula() {
        let mut rng = SplitMix64::new(7);
        let orders = [1u64, 2, 7, 8, 81, 4096, 3u64.pow(40), 1 << 63];
        for order in orders {
            for shards in [1usize, 2, 3, 5, 8, 13, 64, 1000] {
                if shards as u64 > order {
                    continue;
                }
                let partition = Partition::new(order, shards);
                let exact =
                    |x: u64| ((u128::from(x) * shards as u128) / u128::from(order)) as usize;
                let mut ranks: Vec<u64> = if order <= 4096 {
                    (0..order).collect()
                } else {
                    (0..2000).map(|_| rng.below_u64(order)).collect()
                };
                for sid in 0..=shards {
                    let base = partition.base(sid);
                    ranks.extend(
                        [base.saturating_sub(1), base]
                            .into_iter()
                            .filter(|&x| x < order),
                    );
                    if sid < shards {
                        assert_eq!(exact(base), sid, "n={order} S={shards}");
                    }
                }
                for x in ranks {
                    assert_eq!(partition.owner(x), exact(x), "n={order} S={shards} x={x}");
                }
            }
        }
    }

    /// The batch order equals a full sort on the layouts batches are
    /// assembled in (sorted runs from local forwards and mailbox drains,
    /// reversed, interleaved, singleton, shuffled).
    #[test]
    fn sort_by_id_matches_full_sort() {
        let mut shuffled: Vec<u32> = (0..500).collect();
        SplitMix64::new(3).shuffle(&mut shuffled);
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![3],
            (0..50).collect(),
            (0..50).rev().collect(),
            vec![0, 2, 4, 6, 1, 3, 5, 7],
            vec![5, 6, 7, 0, 1, 2, 8, 9, 3, 4],
            shuffled,
        ];
        for ids in cases {
            let mut batch: Vec<Flight> = ids.iter().map(|&i| flight(i)).collect();
            let mut want = ids.clone();
            want.sort_unstable();
            sort_by_id(&mut batch);
            let got: Vec<u32> = batch.iter().map(|f| f.id).collect();
            assert_eq!(got, want, "input {ids:?}");
        }
    }

    /// The sharded next-hop table walks the same hop histogram as the
    /// classic §3 simulator, which the source-routed fallback tier runs:
    /// both forward every message along a shortest route.
    #[test]
    fn hop_histogram_matches_classic_simulator() {
        let space = space(2, 8);
        let traffic = workload::uniform_random(space, 500, 23);
        let classic = ShardedSimulation::new(space, SimConfig::default(), 1)
            .and_then(|sim| sim.with_next_hop(NextHopMode::Fallback))
            .expect("source routes serve every config")
            .run(&traffic);
        let sim = ShardedSimulation::new(space, SimConfig::default(), 4).expect("supported config");
        assert!(sim.uses_table(), "d=2 k=8 fits the default memory cap");
        let sharded = sim.run(&traffic);
        assert_eq!(sharded.hop_histogram, classic.hop_histogram);
        assert_eq!(sharded.delivered, classic.delivered);
        assert_eq!(sharded.injected, classic.injected);
        assert_eq!(sharded.total_hops, classic.total_hops);
    }

    /// Directed mode (Algorithm 1): hop counts equal directed distances.
    #[test]
    fn directed_mode_routes_at_directed_distance() {
        let space = space(2, 5);
        let config = SimConfig {
            router: RouterKind::Algorithm1,
            ..SimConfig::default()
        };
        let traffic = workload::uniform_random(space, 200, 3);
        let report = ShardedSimulation::new(space, config, 3)
            .expect("supported config")
            .run(&traffic);
        let mut expected: BTreeMap<usize, usize> = BTreeMap::new();
        for inj in &traffic {
            *expected
                .entry(distance::directed::distance(&inj.source, &inj.destination))
                .or_insert(0) += 1;
        }
        assert_eq!(report.hop_histogram, expected);
        // And the compressed and fallback tiers agree with the table.
        for mode in [NextHopMode::Compressed, NextHopMode::Fallback] {
            let tier = ShardedSimulation::new(space, config, 3)
                .expect("supported config")
                .with_next_hop(mode)
                .expect("tier available")
                .run(&traffic);
            assert_eq!(tier.hop_histogram, expected, "{mode:?}");
        }
    }

    /// Faulty nodes drop traffic at injection and in transit; TTL expiry
    /// drops the rest.
    #[test]
    fn faults_and_ttl_are_honored() {
        let space = space(2, 6);
        let faulty = space.word_from_rank(0).expect("rank 0 exists");
        let traffic = workload::uniform_random(space, 300, 9);
        let sim = ShardedSimulation::new(space, SimConfig::default(), 4)
            .expect("supported config")
            .with_faults(vec![faulty])
            .expect("fault word in space");
        let report = sim.run(&traffic);
        assert_eq!(report.injected, 300);
        assert_eq!(report.delivered + report.dropped, 300);
        assert!(report.dropped > 0, "rank 0 participates in some routes");

        let strangled = ShardedSimulation::new(
            space,
            SimConfig {
                ttl: 1,
                ..SimConfig::default()
            },
            4,
        )
        .expect("supported config")
        .run(&traffic);
        assert_eq!(
            strangled.dropped as u64,
            strangled.dropped_by_reason.get("ttl").copied().unwrap_or(0),
            "with ttl=1 every drop is a TTL drop"
        );
        assert!(strangled.dropped > 0, "most pairs are farther than 1 hop");
    }

    /// `Auto` keeps the next-hop tiers for an optimal router under the
    /// zero policy with drop-on-fault, and runs every other
    /// configuration on the fallback tier, where forcing a next-hop tier
    /// is an error.
    #[test]
    fn unsupported_configs_are_rejected() {
        let space = space(2, 4);
        let default = ShardedSimulation::new(space, SimConfig::default(), 2).expect("default");
        assert_eq!(default.next_hop_mode(), NextHopMode::Dense);
        let others = [
            SimConfig {
                router: RouterKind::Trivial,
                ..SimConfig::default()
            },
            SimConfig {
                router: RouterKind::Multipath,
                ..SimConfig::default()
            },
            SimConfig {
                policy: WildcardPolicy::LeastLoaded,
                ..SimConfig::default()
            },
            SimConfig {
                fault_handling: FaultHandling::SourceReroute,
                ..SimConfig::default()
            },
        ];
        for config in others {
            let sim = ShardedSimulation::new(space, config, 2).expect("every config is supported");
            assert_eq!(sim.next_hop_mode(), NextHopMode::Fallback, "{config:?}");
            for mode in [NextHopMode::Dense, NextHopMode::Compressed] {
                let forced =
                    ShardedSimulation::new(space, config, 2).and_then(|s| s.with_next_hop(mode));
                assert!(
                    matches!(forced, Err(NetError::Unsupported { .. })),
                    "{config:?} {mode:?}"
                );
            }
        }
        let foreign = Word::parse(3, "0120").expect("valid word");
        assert!(matches!(
            default.with_faults(vec![foreign]),
            Err(NetError::ForeignWord { .. })
        ));
    }

    /// The engine produces every drop reason it knows — faulty source,
    /// faulty node and TTL on both tier families, no route under source
    /// rerouting — and the report's breakdown is the recorder's.
    #[test]
    fn every_drop_reason_is_produced_and_attributed() {
        let space = space(2, 4);
        let traffic = workload::all_pairs(space);
        let config = SimConfig {
            ttl: 2,
            ..SimConfig::default()
        };
        let reroute = SimConfig {
            fault_handling: FaultHandling::SourceReroute,
            ..config
        };
        let runs = [
            (
                config,
                NextHopMode::Dense,
                &["faulty-node", "faulty-source", "ttl"][..],
            ),
            (
                config,
                NextHopMode::Compressed,
                &["faulty-node", "faulty-source", "ttl"],
            ),
            (
                config,
                NextHopMode::Fallback,
                &["faulty-node", "faulty-source", "ttl"],
            ),
            (
                reroute,
                NextHopMode::Fallback,
                &["faulty-source", "no-route", "ttl"],
            ),
        ];
        for (config, mode, reasons) in runs {
            let mut metrics = InMemoryRecorder::new();
            let report = sim(space, config, mode, &[9]).run_recorded(&traffic, &mut metrics);
            let seen: Vec<&str> = report.dropped_by_reason.keys().copied().collect();
            assert_eq!(seen, reasons, "{mode:?} {:?}", config.fault_handling);
            assert_eq!(report.dropped_by_reason, metrics.drops_by_reason);
        }
    }

    /// The profiler observes without perturbing: report, JSONL trace,
    /// and metrics are byte-identical with profiling on vs. off across
    /// the `{1,4} × {1,4}` shard/thread grid, and the profile itself is
    /// internally consistent (steps cover every injection, windows
    /// crossed, phases timed).
    #[test]
    fn profiled_runs_are_byte_identical_to_unprofiled() {
        let space = space(2, 7);
        let traffic = workload::uniform_burst(space, 400, 13);
        let observe = |sim: &ShardedSimulation, profile: Option<&ProfileConfig>| {
            let mut jsonl = JsonlRecorder::new(Vec::new());
            let mut metrics = InMemoryRecorder::new();
            let mut fan = crate::record::FanoutRecorder::new();
            fan.push(&mut jsonl);
            fan.push(&mut metrics);
            let (report, prof) = match profile {
                Some(cfg) => {
                    let (report, prof) = sim.run_profiled(&traffic, &mut fan, cfg);
                    (report, Some(prof))
                }
                None => (sim.run_recorded(&traffic, &mut fan), None),
            };
            drop(fan);
            let trace = jsonl.finish().expect("in-memory trace");
            (report, trace, metrics, prof)
        };
        for shards in [1usize, 4] {
            for threads in [1usize, 4] {
                let config = SimConfig {
                    threads,
                    ..SimConfig::default()
                };
                let sim = ShardedSimulation::new(space, config, shards).expect("supported config");
                let (report, trace, metrics, _) = observe(&sim, None);
                let cfg = ProfileConfig {
                    sample_every: 8,
                    slices: true,
                };
                let (preport, ptrace, pmetrics, prof) = observe(&sim, Some(&cfg));
                assert_eq!(
                    report, preport,
                    "report perturbed at S={shards} T={threads}"
                );
                assert_eq!(trace, ptrace, "trace perturbed at S={shards} T={threads}");
                assert_eq!(
                    metrics, pmetrics,
                    "metrics perturbed at S={shards} T={threads}"
                );
                let prof = prof.expect("profiled run returns a profile");
                assert_eq!(prof.shards, sim.shards());
                assert!(prof.windows > 0, "at least one window crossed");
                assert!(prof.wall_nanos > 0);
                assert!(
                    prof.total_steps() >= 400,
                    "every injection is at least one step"
                );
                assert!(
                    prof.phase_totals()
                        .iter()
                        .any(|&(p, ns)| p == Phase::Compute && ns > 0),
                    "compute time was observed"
                );
                assert!(!prof.slices.is_empty(), "slices were recorded");
                assert!(prof.step_imbalance() >= 1.0);
            }
        }
    }

    /// The span sampler's causal record is deterministic: the same
    /// messages are tagged, and their per-hop tick spans are identical,
    /// for every shard/thread combination (shard endpoints aside, which
    /// are a function of the shard count only).
    #[test]
    fn sampled_spans_are_shard_and_thread_invariant() {
        let space = space(2, 7);
        let traffic = workload::uniform_random(space, 400, 17);
        let cfg = ProfileConfig {
            sample_every: 4,
            slices: false,
        };
        type SpanTicks = (u32, u32, u64, u64, u64);
        let mut baseline: Option<(Vec<SpanTicks>, Vec<SampledDelivery>)> = None;
        let mut per_shard_spans: Option<Vec<HopSpan>> = None;
        for shards in [1usize, 4] {
            for threads in [1usize, 4] {
                let config = SimConfig {
                    threads,
                    ..SimConfig::default()
                };
                let sim = ShardedSimulation::new(space, config, shards).expect("supported config");
                let (_, prof) = sim.run_profiled(&traffic, &mut crate::record::NullRecorder, &cfg);
                assert!(!prof.spans.is_empty(), "1/4 sampling tags some messages");
                let ticks: Vec<(u32, u32, u64, u64, u64)> = prof
                    .spans
                    .iter()
                    .map(|s| (s.message, s.hop, s.start, s.departs, s.arrives))
                    .collect();
                match &baseline {
                    None => baseline = Some((ticks, prof.deliveries.clone())),
                    Some((t, d)) => {
                        assert_eq!(&ticks, t, "span ticks differ at S={shards} T={threads}");
                        assert_eq!(
                            &prof.deliveries, d,
                            "deliveries differ at S={shards} T={threads}"
                        );
                    }
                }
                // Full spans (shard endpoints included) depend only on
                // the shard count, never the thread count.
                if shards == 4 {
                    match &per_shard_spans {
                        None => per_shard_spans = Some(prof.spans.clone()),
                        Some(s) => assert_eq!(&prof.spans, s, "T={threads}"),
                    }
                }
                // Every sampled delivery's path is fully stitched: one
                // span per hop, and the critical path reproduces the
                // delivery latency.
                for path in prof.critical_paths(usize::MAX) {
                    if let Ok(i) = prof
                        .deliveries
                        .binary_search_by_key(&path.message, |d| d.message)
                    {
                        let d = prof.deliveries[i];
                        assert_eq!(path.hops, d.hops, "msg {}", path.message);
                        assert_eq!(path.ticks, d.delivered_at - d.injected_at);
                        assert!(path.delivered);
                    }
                }
            }
        }
    }

    /// `sample_every: 0` disables causal tracing but keeps the phase
    /// timers; `sample_every: 1` tags everything.
    #[test]
    fn sampling_rate_bounds() {
        let space = space(2, 6);
        let traffic = workload::uniform_random(space, 100, 3);
        let sim = ShardedSimulation::new(space, SimConfig::default(), 2).expect("supported config");
        let (report, off) = sim.run_profiled(
            &traffic,
            &mut crate::record::NullRecorder,
            &ProfileConfig {
                sample_every: 0,
                slices: false,
            },
        );
        assert!(off.spans.is_empty() && off.deliveries.is_empty());
        assert_eq!(off.sample_every, 0);
        assert!(off.windows > 0);
        let (_, all) = sim.run_profiled(
            &traffic,
            &mut crate::record::NullRecorder,
            &ProfileConfig {
                sample_every: 1,
                slices: false,
            },
        );
        assert_eq!(all.deliveries.len() as u64, report.delivered as u64);
        assert_eq!(
            all.spans.len() as u64,
            report.total_hops,
            "one span per delivered hop (nothing drops here)"
        );
    }

    /// Shard counts beyond the node count clamp instead of panicking,
    /// and a single shard still honors `threads > 1`.
    #[test]
    fn extreme_shard_counts_clamp() {
        let space = space(2, 3);
        let traffic = workload::uniform_random(space, 50, 2);
        let huge =
            ShardedSimulation::new(space, SimConfig::default(), 1000).expect("supported config");
        assert_eq!(huge.shards(), 8);
        let one = ShardedSimulation::new(
            space,
            SimConfig {
                threads: 8,
                ..SimConfig::default()
            },
            1,
        )
        .expect("supported config");
        assert_eq!(huge.run(&traffic), one.run(&traffic));
    }
}
