//! Implementation of the `dbr` command-line tool.
//!
//! Kept in the library (rather than the binary) so the argument parsing
//! and command logic are unit-testable. The binary `src/bin/dbr.rs` is a
//! thin wrapper. No external argument-parsing dependency: the grammar is
//! small and fixed.

use std::fmt::Write as _;
use std::sync::Arc;

use debruijn_analysis::{average, Table};
use debruijn_core::distance::undirected::Engine;
use debruijn_core::{directed_average_distance, distance, profile, routing, DeBruijn, Word};
use debruijn_graph::{census, diameter, euler, DebruijnGraph};
use debruijn_net::metrics::{
    register_core_profile, AnomalyTriggers, FlightRecorder, MetricsRegistry, RegistryRecorder,
    ScrapeServer,
};
use debruijn_net::record::{parse_event, FanoutRecorder, InMemoryRecorder, JsonlRecorder};
use debruijn_net::service::{QueryService, ServiceConfig};
use debruijn_net::telemetry::{ChromeTraceRecorder, SnapshotRecorder};
use debruijn_net::{
    workload, MonitorConfig, MonitorSet, NetEvent, NextHopMode, ProfileConfig, Recorder,
    RouterKind, ShardedSimulation, SimConfig, SimReport, Simulation, Verdict, WildcardPolicy,
};

use crate::trace::{self, TraceMetric};

/// A parsed `dbr` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `dbr route <d> <X> <Y> [--directed] [--engine E]` or
    /// `dbr route <d> --batch FILE [--threads N] …`
    Route {
        /// Digit radix.
        d: u8,
        /// The single source/destination pair (`None` in batch mode).
        pair: Option<(String, String)>,
        /// Uni-directional network (Algorithm 1) instead of Algorithm 2/4.
        directed: bool,
        /// Engine override for the bidirectional case.
        engine: Engine,
        /// Worker threads for batch mode (1 = inline, 0 = all cores).
        threads: usize,
        /// Read whitespace-separated "X Y" pairs from this file (`-` =
        /// stdin), one route per line.
        batch: Option<String>,
    },
    /// `dbr distance <d> <X> <Y> [--directed] [--engine E]` or
    /// `dbr distance <d> --batch FILE [--threads N] …`
    Distance {
        /// Digit radix.
        d: u8,
        /// The single source/destination pair (`None` in batch mode).
        pair: Option<(String, String)>,
        /// Uni-directional distance (Property 1) instead of Theorem 2.
        directed: bool,
        /// Engine for the undirected distance (default: auto crossover).
        engine: Engine,
        /// Worker threads for batch mode (1 = inline, 0 = all cores).
        threads: usize,
        /// Read whitespace-separated "X Y" pairs from this file (`-` =
        /// stdin), one distance per line.
        batch: Option<String>,
    },
    /// `dbr sequence <d> <n> [--prefer-largest]`
    Sequence {
        /// Digit radix.
        d: u8,
        /// Window length.
        n: usize,
        /// Use Martin's greedy generator instead of Hierholzer.
        prefer_largest: bool,
    },
    /// `dbr census <d> <k>`
    Census {
        /// Digit radix.
        d: u8,
        /// Word length.
        k: usize,
    },
    /// `dbr average <d> <k> [--directed] [--samples N]`
    Average {
        /// Digit radix.
        d: u8,
        /// Word length.
        k: usize,
        /// Directed instead of undirected average.
        directed: bool,
        /// Monte-Carlo sample count (0 = exact enumeration).
        samples: usize,
    },
    /// `dbr simulate <d> <k> [--messages N] [--router R] [--policy P] [--seed S]
    /// [--metrics] [--trace FILE] [--progress N] [--chrome-trace FILE]
    /// [--listen ADDR] [--metrics-out FILE] [--flight-recorder FILE]
    /// [--flight-capacity N] [--faults W1,W2] [--ttl N] [--next-hop T]
    /// [--workload W]`
    Simulate {
        /// Digit radix.
        d: u8,
        /// Word length.
        k: usize,
        /// Number of uniform random messages.
        messages: usize,
        /// Routing strategy.
        router: RouterKind,
        /// Wildcard policy.
        policy: WildcardPolicy,
        /// RNG seed.
        seed: u64,
        /// Worker threads for the route-precompute pass (classic
        /// engine) or the per-tick shard workers (sharded engine).
        threads: usize,
        /// Run the sharded deterministic engine with this many node
        /// partitions (`None` = classic event-driven engine).
        shards: Option<usize>,
        /// Route-cache capacity (0 disables).
        route_cache: usize,
        /// Print per-hop/queue histograms and wildcard/profile counters.
        metrics: bool,
        /// Write every simulation event to this file as JSON lines.
        trace: Option<String>,
        /// Print an in-flight snapshot to stderr every N simulated ticks.
        progress: Option<u64>,
        /// Write a Chrome trace-event (Perfetto) file of the run.
        chrome_trace: Option<String>,
        /// Serve `/metrics` and `/healthz` over HTTP at this address
        /// during the run and until killed.
        listen: Option<String>,
        /// Write Prometheus text snapshots to this file periodically and
        /// after the run.
        metrics_out: Option<String>,
        /// Arm a flight recorder that dumps the pre-anomaly event window
        /// to this JSONL file.
        flight_recorder: Option<String>,
        /// Flight-recorder ring capacity (events kept before an anomaly).
        flight_capacity: usize,
        /// Comma-separated faulty node addresses.
        faults: Option<String>,
        /// Per-message hop budget (0 disables; exceeding it drops with
        /// reason `ttl`).
        ttl: usize,
        /// Forwarding tier for the sharded engine (`--next-hop`).
        next_hop: NextHopMode,
        /// Traffic pattern (`--workload`).
        workload: WorkloadKind,
        /// Fault-localizing monitor placement (`--monitors`).
        monitors: MonitorChoice,
        /// Dump the monitors' anomaly-evidence window to this JSONL
        /// file after the decode.
        monitor_dump: Option<String>,
    },
    /// `dbr profile <d> <k> [--shards S] [--threads N] [--sample N]
    /// [--top K] [--profile-out FILE] [--chrome-out FILE] …` — run the
    /// sharded engine with the profiler armed and print the phase-time
    /// breakdown, per-shard imbalance, and top-k critical paths.
    Profile {
        /// Digit radix.
        d: u8,
        /// Word length.
        k: usize,
        /// Number of messages.
        messages: usize,
        /// Routing strategy (optimal routers only, as for `--shards`).
        router: RouterKind,
        /// Wildcard policy (fallback tier only).
        policy: WildcardPolicy,
        /// RNG seed (also feeds the span sampler).
        seed: u64,
        /// Shard worker threads.
        threads: usize,
        /// Node partitions (the profiled engine is always sharded).
        shards: usize,
        /// Forwarding tier.
        next_hop: NextHopMode,
        /// Traffic pattern.
        workload: WorkloadKind,
        /// Comma-separated faulty node addresses.
        faults: Option<String>,
        /// Per-message hop budget (0 disables).
        ttl: usize,
        /// Causal-tracing rate: tag ~1/N messages (0 disables spans).
        sample: u32,
        /// How many critical paths to print.
        top: usize,
        /// Write the profile as JSON to this file.
        profile_out: Option<String>,
        /// Write a Chrome trace of engine phase slices to this file.
        chrome_out: Option<String>,
        /// Write the simulation event trace (JSONL) to this file.
        trace: Option<String>,
        /// Print the simulation metrics block too.
        metrics: bool,
    },
    /// `dbr serve <d> [--listen ADDR] [--threads N] [--cache-capacity N]
    /// [--max-inflight N] [--batch B] [--flight-dump FILE]` — standing
    /// thread-per-core route/distance query service with `/metrics`.
    Serve {
        /// Digit radix served.
        d: u8,
        /// Bind address (`127.0.0.1:0` picks a free port).
        listen: String,
        /// Worker threads / cache shards (0 = one per core).
        threads: usize,
        /// Total route-cache capacity split across shards (0 disables).
        cache_capacity: usize,
        /// Per-worker queue bound; overflow is shed with 503.
        max_inflight: usize,
        /// Maximum queries a worker answers per wakeup.
        batch: usize,
        /// Arm the queue-depth flight recorder, dumping the
        /// pre-overload window to this JSONL file.
        flight_dump: Option<String>,
    },
    /// `dbr localize <d> <k> <trace.jsonl> [--directed] [--monitors
    /// identifying|all] [--threshold N]` — replay a trace through a
    /// monitor set and print the fault-localization verdict with the
    /// monitor evidence table.
    Localize {
        /// Digit radix.
        d: u8,
        /// Word length.
        k: usize,
        /// The JSONL trace to replay (from `--trace` or a flight dump).
        file: String,
        /// Decode against the directed graph's in-balls (traces from
        /// `--router alg1`/`trivial`) instead of the undirected ones.
        directed: bool,
        /// Monitor placement to decode with.
        monitors: MonitorChoice,
        /// Graded anomaly count a monitor needs before its bit is set.
        threshold: u64,
    },
    /// `dbr trace <summary|links|hist|diff|export> …` — offline
    /// analysis of `--trace` JSONL files.
    Trace {
        /// Which analysis to run.
        action: TraceAction,
    },
    /// `dbr multipath <d> <X> <Y>`
    Multipath {
        /// Digit radix.
        d: u8,
        /// Source address text.
        x: String,
        /// Destination address text.
        y: String,
    },
    /// `dbr gdb <d> <N> <i> <j>`
    Gdb {
        /// Out-degree.
        d: u64,
        /// Vertex count (any `N >= 2`).
        n: u64,
        /// Source vertex.
        i: u64,
        /// Destination vertex.
        j: u64,
    },
    /// `dbr disjoint <d> <X> <Y>`
    Disjoint {
        /// Digit radix.
        d: u8,
        /// Source address text.
        x: String,
        /// Destination address text.
        y: String,
    },
    /// `dbr help`
    Help,
}

/// Monitor placement selected by `dbr simulate --monitors` and
/// `dbr localize --monitors`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MonitorChoice {
    /// No monitors (the `simulate` default — output stays untouched).
    #[default]
    None,
    /// Monitors on a verified 1-identifying code: the cheapest
    /// placement that still makes every single fault's signature
    /// unique.
    Identifying,
    /// Monitors on every vertex: the exhaustive baseline.
    All,
}

impl MonitorChoice {
    /// Parses a `--monitors` value: `identifying`, `all`, or `none`.
    fn parse(value: &str) -> Result<Self, String> {
        match value {
            "identifying" => Ok(MonitorChoice::Identifying),
            "all" => Ok(MonitorChoice::All),
            "none" => Ok(MonitorChoice::None),
            other => Err(format!(
                "unknown monitor placement '{other}' (expected identifying|all|none)"
            )),
        }
    }
}

/// Traffic pattern selected by `dbr simulate --workload`.
///
/// `uniform` injects one message per tick ([`workload::uniform_random`]),
/// `burst` injects them all at tick 0 ([`workload::uniform_burst`]), and
/// `zipf:EXP` is a tick-0 burst whose destinations follow a power law
/// with the given exponent ([`workload::zipf`]; `zipf` alone means
/// exponent 1.0). All are deterministic for a fixed `--seed`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum WorkloadKind {
    /// One uniform random message per tick (the default).
    #[default]
    Uniform,
    /// All uniform random messages at tick 0.
    Burst,
    /// Zipf-skewed destinations, injected at tick 0.
    Zipf(f64),
}

impl WorkloadKind {
    /// Parses a `--workload` value: `uniform`, `burst`, `zipf`, or
    /// `zipf:EXP`.
    fn parse(value: &str) -> Result<Self, String> {
        match value {
            "uniform" => Ok(WorkloadKind::Uniform),
            "burst" => Ok(WorkloadKind::Burst),
            "zipf" => Ok(WorkloadKind::Zipf(1.0)),
            other => match other.strip_prefix("zipf:") {
                Some(exp) => match exp.parse::<f64>() {
                    Ok(e) if e.is_finite() && e >= 0.0 => Ok(WorkloadKind::Zipf(e)),
                    _ => Err(format!("bad zipf exponent '{exp}' (need finite >= 0)")),
                },
                None => Err(format!(
                    "unknown workload '{other}' (uniform|burst|zipf[:EXP])"
                )),
            },
        }
    }
}

/// One `dbr trace` analysis over JSONL trace files.
///
/// Every action takes `[--radix D]` to override the radix inferred
/// from the file's addresses (see [`trace::infer_radix`]).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceAction {
    /// `dbr trace summary <file>` — reconstruct the `--metrics` report.
    Summary {
        /// Trace file path.
        file: String,
        /// Radix override.
        radix: Option<u8>,
    },
    /// `dbr trace links <file> [--top N]` — hottest-links table.
    Links {
        /// Trace file path.
        file: String,
        /// Radix override.
        radix: Option<u8>,
        /// How many links to show.
        top: usize,
    },
    /// `dbr trace hist <metric> <file>` — ASCII histogram of one metric.
    Hist {
        /// Which metric to render.
        metric: TraceMetric,
        /// Trace file path.
        file: String,
        /// Radix override.
        radix: Option<u8>,
    },
    /// `dbr trace diff <A> <B>` — per-metric deltas between two runs.
    Diff {
        /// Baseline trace file.
        a: String,
        /// Comparison trace file.
        b: String,
        /// Radix override (applied to both files).
        radix: Option<u8>,
    },
    /// `dbr trace prom <file> [--threads N]` — render the trace as
    /// Prometheus exposition text (what a live scrape would have seen).
    Prom {
        /// Trace file path.
        file: String,
        /// Radix override.
        radix: Option<u8>,
        /// Worker threads for the sharded fold (1 = inline, 0 = all
        /// cores); output is identical for every value.
        threads: usize,
    },
    /// `dbr trace export <in> <out>` — convert to Chrome trace-event
    /// JSON.
    Export {
        /// Input JSONL trace.
        input: String,
        /// Output Chrome-trace path.
        output: String,
        /// Radix override.
        radix: Option<u8>,
    },
}

/// Usage text printed by `dbr help` and on parse errors.
pub const USAGE: &str = "\
dbr — de Bruijn network routing toolbox

USAGE:
  dbr route <d> <X> <Y> [--directed] [--engine E]
  dbr route <d> --batch FILE [--threads N] [--directed] [--engine E]
  dbr distance <d> <X> <Y> [--directed] [--engine E]
  dbr distance <d> --batch FILE [--threads N] [--directed] [--engine E]
  dbr sequence <d> <n> [--prefer-largest]
  dbr census <d> <k>
  dbr average <d> <k> [--directed] [--samples N]
  dbr simulate <d> <k> [--messages N] [--router trivial|alg1|alg2|alg4]
                       [--policy zero|random|round-robin|least-loaded] [--seed S]
                       [--threads N] [--shards S] [--route-cache N]
                       [--metrics] [--trace FILE] [--progress N]
                       [--chrome-trace FILE] [--listen ADDR]
                       [--metrics-out FILE] [--flight-recorder FILE]
                       [--flight-capacity N] [--faults W1,W2] [--ttl N]
                       [--next-hop auto|dense|compressed|fallback]
                       [--workload uniform|burst|zipf[:EXP]]
                       [--monitors identifying|all|none]
                       [--monitor-dump FILE]
  dbr profile <d> <k> [--shards S] [--threads N] [--sample N] [--top K]
                      [--profile-out FILE] [--chrome-out FILE]
                      [--messages N] [--router R] [--policy P] [--seed S]
                      [--next-hop T] [--workload W] [--faults W1,W2]
                      [--ttl N] [--trace FILE] [--metrics]
  dbr serve <d> [--listen ADDR] [--threads N] [--cache-capacity N]
                [--max-inflight N] [--batch B] [--flight-dump FILE]
                                    HTTP route/distance query service
  dbr localize <d> <k> <trace.jsonl> [--directed]
               [--monitors identifying|all] [--threshold N]
                                    decode a fault from a recorded trace
  dbr trace summary <file>          reconstruct the --metrics report
  dbr trace links <file> [--top N]  hottest links, utilization table
  dbr trace hist <metric> <file>    ASCII histogram (hops|latency|stretch|
                                    queue-wait|queue-depth|per-hop-latency)
  dbr trace diff <A> <B>            per-metric deltas between two runs
  dbr trace prom <file>             render as Prometheus exposition text
  dbr trace export <in> <out>       convert to Chrome trace-event JSON
  dbr multipath <d> <X> <Y>
  dbr gdb <d> <N> <i> <j>
  dbr disjoint <d> <X> <Y>
  dbr help

Addresses are digit strings (\"0110\") or dot-separated for d > 10
(\"11.3.0\"). Examples:
  dbr route 2 010011 110100
  dbr average 2 8 --directed
  dbr simulate 2 8 --messages 5000 --router alg4 --policy least-loaded --metrics
  dbr simulate 2 8 --messages 5000 --trace run.jsonl --progress 50
  dbr trace summary run.jsonl

Engines E for the bidirectional distance: auto (default) | bit-parallel |
suffix-tree | mp | naive. auto picks the word-parallel bit-parallel
engine while the packed diagonal sweep still beats tree construction
(k <= 8192 for d = 2, 2048 for d = 3..16, 1024 beyond) and the O(k)
suffix tree past that (see docs/PERFORMANCE.md). --batch FILE reads
one \"X Y\" pair per line (`-` = stdin, `#` comments ok) and prints
one result per line;
--threads N fans the batch (or the simulator's route precomputation)
out over N workers (0 = all cores) with results merged in input order,
byte-identical to --threads 1. --route-cache N bounds the simulator's
(source, destination) route cache (clock eviction, 0 disables).
--shards S switches `simulate` to the sharded deterministic engine:
nodes are split into S partitions stepped in parallel (--threads) with
O(1) next-hop forwarding, and the report, trace, and metrics are
identical for every shards/threads combination (only the optimal
routers alg1/alg2/alg4 and drop-on-fault are supported; see
docs/SCALING.md). --next-hop picks the sharded engine's forwarding
tier: auto (default) uses the dense precomputed table when it fits the
memory cap and the O(1)-memory compressed shift-prediction cursor
beyond it (so DG(2,20)'s million nodes simulate without a table);
dense/compressed force a tier, fallback selects the word-level
routers. dense and compressed produce byte-identical reports.
--workload picks the traffic pattern: uniform (one message per tick,
default), burst (all at tick 0), or zipf[:EXP] (tick-0 burst with
power-law destination skew, default exponent 1.0).

`dbr profile` runs the sharded engine with the engine profiler armed:
it prints the same seven report lines as `simulate` (byte-identical —
the profiler observes without perturbing), then a phase-time breakdown
(compute, barrier wait, mailbox drain, batch merge, report), per-shard
imbalance, and the top K critical paths among the ~1/N messages a
deterministic seed-hashed sampler tags for causal span tracing
(--sample N, default 64, 0 = off; the sampled set is identical for
every --shards/--threads combination). --profile-out FILE writes the
profile as JSON; --chrome-out FILE writes engine phase slices as a
Chrome trace with one lane per shard (https://ui.perfetto.dev); see
docs/OBSERVABILITY.md \"Profiling the engine\".

--metrics prints exact histograms (hops, stretch over D(X,Y), per-hop
latency, queue wait/depth, end-to-end latency) and counters (wildcard
resolutions per policy and digit, drops by reason, distance-engine,
route-cache and convergecast profile); --trace FILE streams every event as JSON lines
that every `dbr trace` command can analyse offline (they infer the
radix from the file; pass --radix D to override); --progress N prints
an in-flight snapshot to stderr every N ticks; --chrome-trace FILE
writes a timeline for https://ui.perfetto.dev.

--listen ADDR serves Prometheus text at http://ADDR/metrics (plus
/healthz) while the run executes and until the process is killed; the
bound address is printed to stderr, so `--listen 127.0.0.1:0` works.
--metrics-out FILE writes the same text to a file periodically and at
exit. --flight-recorder FILE arms an anomaly-triggered ring buffer
(drop/no-route bursts, queue high-water, stalled links) that dumps the
pre-anomaly event window as JSONL readable by every `dbr trace`
command; it re-arms after each capture, numbering later dumps FILE.2,
FILE.3, … so firings never overwrite each other (16 max);
--flight-capacity N sizes the ring (default 4096). --faults
W1,W2 marks nodes faulty; --ttl N drops messages exceeding N hops
(reason `ttl`).

--monitors places fault-localizing monitors on the network (see
docs/OBSERVABILITY.md \"Localizing faults\"): `identifying` uses a
verified 1-identifying code of DG(d,k) — the cheapest placement whose
anomaly signatures stay unique per faulty node — and `all` monitors
every vertex. Each monitor folds the drops, routing failures and
queue breaches attributed to it into a signature bit; after the run
the signature decodes to a verdict (`exact — faulty node W`, `ranked`,
or `clean`) printed with the per-monitor evidence table, and the
dbr_monitor_* families join any --listen/--metrics-out registry.
--monitor-dump FILE writes the anomalous-event evidence window as
JSONL after the decode. `dbr localize <d> <k> <trace.jsonl>` replays a
recorded trace (from --trace or a flight dump) through the same
monitors offline and prints the same table and verdict; pass
--directed for traces routed with alg1/trivial, --threshold N to
require N graded anomalies per signature bit (default 1).

`dbr serve <d>` answers GET /distance?x=X&y=Y and
/route?x=X&y=Y (add &directed=1 for Algorithm 1) over keep-alive
HTTP/1.1 on a thread-per-core worker pool with sharded route caches:
--threads N sets the worker/shard count (0 = one per core),
--cache-capacity the total cached routes, --max-inflight the
per-worker queue bound (overflow is shed with 503 + Retry-After),
--batch the per-wakeup drain size, and --flight-dump FILE arms a
queue-depth flight recorder that dumps the pre-overload window.
Malformed queries get 400 with a JSON error body; unknown endpoints
404. dbr_service_* metrics are exported at /metrics and printed as an
end-of-run dump after GET /quitquitquit. See docs/OBSERVABILITY.md.
";

/// Usage text for the `dbr trace` family, shown on trace parse errors.
pub const TRACE_USAGE: &str = "\
USAGE:
  dbr trace summary <file> [--radix D]
  dbr trace links <file> [--top N] [--radix D]
  dbr trace hist <metric> <file> [--radix D]
      metrics: hops|latency|stretch|queue-wait|queue-depth|per-hop-latency
  dbr trace diff <A> <B> [--radix D]
  dbr trace prom <file> [--threads N] [--radix D]
  dbr trace export <in> <out> [--radix D]
";

/// Parses command-line arguments (without the program name).
///
/// # Errors
///
/// Returns a human-readable message describing the first problem.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    let sub = it.next().ok_or_else(|| "missing subcommand".to_string())?;
    let rest: Vec<&str> = it.collect();
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "route" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_only(&["--directed", "--engine", "--threads", "--batch"])?;
            let batch = flags.value("--batch")?.map(String::from);
            let (d, pair) = pair_or_batch(&pos, batch.is_some(), "route")?;
            Ok(Command::Route {
                d,
                pair,
                directed: flags.has("--directed")?,
                engine: parse_engine(flags.value("--engine")?)?,
                threads: parse_threads(&flags)?,
                batch,
            })
        }
        "distance" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_only(&["--directed", "--engine", "--threads", "--batch"])?;
            let batch = flags.value("--batch")?.map(String::from);
            let (d, pair) = pair_or_batch(&pos, batch.is_some(), "distance")?;
            Ok(Command::Distance {
                d,
                pair,
                directed: flags.has("--directed")?,
                engine: parse_engine(flags.value("--engine")?)?,
                threads: parse_threads(&flags)?,
                batch,
            })
        }
        "sequence" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_only(&["--prefer-largest"])?;
            let [d, n] = positional::<2>(&pos, "sequence <d> <n>")?;
            Ok(Command::Sequence {
                d: parse_radix(d)?,
                n: parse_num(n, "n")?,
                prefer_largest: flags.has("--prefer-largest")?,
            })
        }
        "census" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_empty()?;
            let [d, k] = positional::<2>(&pos, "census <d> <k>")?;
            Ok(Command::Census {
                d: parse_radix(d)?,
                k: parse_num(k, "k")?,
            })
        }
        "average" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_only(&["--directed", "--samples"])?;
            let [d, k] = positional::<2>(&pos, "average <d> <k>")?;
            Ok(Command::Average {
                d: parse_radix(d)?,
                k: parse_num(k, "k")?,
                directed: flags.has("--directed")?,
                samples: flags
                    .value("--samples")?
                    .map(|v| parse_num(v, "samples"))
                    .transpose()?
                    .unwrap_or(0),
            })
        }
        "simulate" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_only(&[
                "--messages",
                "--router",
                "--policy",
                "--seed",
                "--threads",
                "--shards",
                "--route-cache",
                "--metrics",
                "--trace",
                "--progress",
                "--chrome-trace",
                "--listen",
                "--metrics-out",
                "--flight-recorder",
                "--flight-capacity",
                "--faults",
                "--ttl",
                "--next-hop",
                "--workload",
                "--monitors",
                "--monitor-dump",
            ])?;
            let [d, k] = positional::<2>(&pos, "simulate <d> <k>")?;
            Ok(Command::Simulate {
                d: parse_radix(d)?,
                k: parse_num(k, "k")?,
                messages: flags
                    .value("--messages")?
                    .map(|v| parse_num(v, "messages"))
                    .transpose()?
                    .unwrap_or(1000),
                router: parse_router(flags.value("--router")?)?,
                policy: parse_policy(flags.value("--policy")?)?,
                seed: parse_seed(&flags)?,
                threads: parse_threads(&flags)?,
                shards: flags
                    .value("--shards")?
                    .map(|v| match parse_num(v, "shards") {
                        Ok(n) if n > 0 => Ok(n),
                        Ok(_) => Err("bad shards '0' (need >= 1)".to_string()),
                        Err(e) => Err(e),
                    })
                    .transpose()?,
                route_cache: flags
                    .value("--route-cache")?
                    .map(|v| parse_num(v, "route-cache"))
                    .transpose()?
                    .unwrap_or(SimConfig::default().route_cache),
                metrics: flags.has("--metrics")?,
                trace: flags.value("--trace")?.map(String::from),
                progress: flags
                    .value("--progress")?
                    .map(|v| match v.parse::<u64>() {
                        Ok(n) if n > 0 => Ok(n),
                        _ => Err(format!("bad progress interval '{v}' (need ticks >= 1)")),
                    })
                    .transpose()?,
                chrome_trace: flags.value("--chrome-trace")?.map(String::from),
                listen: flags.value("--listen")?.map(String::from),
                metrics_out: flags.value("--metrics-out")?.map(String::from),
                flight_recorder: flags.value("--flight-recorder")?.map(String::from),
                flight_capacity: flags
                    .value("--flight-capacity")?
                    .map(|v| match parse_num(v, "flight-capacity") {
                        Ok(n) if n > 0 => Ok(n),
                        Ok(_) => Err("bad flight-capacity '0' (need >= 1)".to_string()),
                        Err(e) => Err(e),
                    })
                    .transpose()?
                    .unwrap_or(4096),
                faults: flags.value("--faults")?.map(String::from),
                ttl: flags
                    .value("--ttl")?
                    .map(|v| parse_num(v, "ttl"))
                    .transpose()?
                    .unwrap_or(0),
                next_hop: parse_next_hop(flags.value("--next-hop")?)?,
                workload: flags
                    .value("--workload")?
                    .map(WorkloadKind::parse)
                    .transpose()?
                    .unwrap_or_default(),
                monitors: flags
                    .value("--monitors")?
                    .map(MonitorChoice::parse)
                    .transpose()?
                    .unwrap_or_default(),
                monitor_dump: flags.value("--monitor-dump")?.map(String::from),
            })
        }
        "profile" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_only(&[
                "--messages",
                "--router",
                "--policy",
                "--seed",
                "--threads",
                "--shards",
                "--next-hop",
                "--workload",
                "--faults",
                "--ttl",
                "--sample",
                "--top",
                "--profile-out",
                "--chrome-out",
                "--trace",
                "--metrics",
            ])?;
            let [d, k] = positional::<2>(&pos, "profile <d> <k>")?;
            Ok(Command::Profile {
                d: parse_radix(d)?,
                k: parse_num(k, "k")?,
                messages: flags
                    .value("--messages")?
                    .map(|v| parse_num(v, "messages"))
                    .transpose()?
                    .unwrap_or(1000),
                router: parse_router(flags.value("--router")?)?,
                policy: parse_policy(flags.value("--policy")?)?,
                seed: parse_seed(&flags)?,
                threads: parse_threads(&flags)?,
                shards: flags
                    .value("--shards")?
                    .map(|v| match parse_num(v, "shards") {
                        Ok(n) if n > 0 => Ok(n),
                        Ok(_) => Err("bad shards '0' (need >= 1)".to_string()),
                        Err(e) => Err(e),
                    })
                    .transpose()?
                    .unwrap_or(4),
                next_hop: parse_next_hop(flags.value("--next-hop")?)?,
                workload: flags
                    .value("--workload")?
                    .map(WorkloadKind::parse)
                    .transpose()?
                    .unwrap_or_default(),
                faults: flags.value("--faults")?.map(String::from),
                ttl: flags
                    .value("--ttl")?
                    .map(|v| parse_num(v, "ttl"))
                    .transpose()?
                    .unwrap_or(0),
                sample: flags
                    .value("--sample")?
                    .map(|v| {
                        v.parse::<u32>()
                            .map_err(|_| format!("bad sample rate '{v}'"))
                    })
                    .transpose()?
                    .unwrap_or(64),
                top: flags
                    .value("--top")?
                    .map(|v| parse_num(v, "top"))
                    .transpose()?
                    .unwrap_or(5),
                profile_out: flags.value("--profile-out")?.map(String::from),
                chrome_out: flags.value("--chrome-out")?.map(String::from),
                trace: flags.value("--trace")?.map(String::from),
                metrics: flags.has("--metrics")?,
            })
        }
        "serve" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_only(&[
                "--listen",
                "--threads",
                "--cache-capacity",
                "--max-inflight",
                "--batch",
                "--flight-dump",
            ])?;
            let [d] = positional::<1>(&pos, "serve <d> [--listen ADDR] [--threads N]")?;
            let numeric = |flag: &str, name: &str, default: usize| {
                flags
                    .value(flag)?
                    .map(|v| parse_num(v, name))
                    .transpose()
                    .map(|v| v.unwrap_or(default))
            };
            let max_inflight = numeric("--max-inflight", "max-inflight", 256)?;
            if max_inflight == 0 {
                return Err("--max-inflight must be at least 1".into());
            }
            let batch = numeric("--batch", "batch", 32)?;
            if batch == 0 {
                return Err("--batch must be at least 1".into());
            }
            Ok(Command::Serve {
                d: parse_radix(d)?,
                listen: flags
                    .value("--listen")?
                    .unwrap_or("127.0.0.1:0")
                    .to_string(),
                threads: numeric("--threads", "threads", 0)?,
                cache_capacity: numeric("--cache-capacity", "cache-capacity", 4096)?,
                max_inflight,
                batch,
                flight_dump: flags.value("--flight-dump")?.map(String::from),
            })
        }
        "localize" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_only(&["--directed", "--monitors", "--threshold"])?;
            let [d, k, file] = positional::<3>(&pos, "localize <d> <k> <trace.jsonl>")?;
            let monitors = flags
                .value("--monitors")?
                .map(MonitorChoice::parse)
                .transpose()?
                .unwrap_or(MonitorChoice::Identifying);
            if monitors == MonitorChoice::None {
                return Err("localize needs monitors (identifying|all)".into());
            }
            Ok(Command::Localize {
                d: parse_radix(d)?,
                k: parse_num(k, "k")?,
                file: file.to_string(),
                directed: flags.has("--directed")?,
                monitors,
                threshold: flags
                    .value("--threshold")?
                    .map(|v| match v.parse::<u64>() {
                        Ok(n) if n > 0 => Ok(n),
                        _ => Err(format!("bad threshold '{v}' (need >= 1)")),
                    })
                    .transpose()?
                    .unwrap_or(1),
            })
        }
        "trace" => {
            let (pos, flags) = split_flags(&rest);
            let (&action, pos) = pos
                .split_first()
                .ok_or_else(|| format!("missing trace action\n\n{TRACE_USAGE}"))?;
            let radix = flags.value("--radix")?.map(parse_radix).transpose()?;
            let action = match action {
                "summary" => {
                    flags.expect_only(&["--radix"])?;
                    let [file] = positional::<1>(pos, "trace summary <file>")?;
                    TraceAction::Summary {
                        file: file.to_string(),
                        radix,
                    }
                }
                "links" => {
                    flags.expect_only(&["--radix", "--top"])?;
                    let [file] = positional::<1>(pos, "trace links <file>")?;
                    TraceAction::Links {
                        file: file.to_string(),
                        radix,
                        top: flags
                            .value("--top")?
                            .map(|v| parse_num(v, "top"))
                            .transpose()?
                            .unwrap_or(10),
                    }
                }
                "hist" => {
                    flags.expect_only(&["--radix"])?;
                    let [metric, file] = positional::<2>(pos, "trace hist <metric> <file>")?;
                    TraceAction::Hist {
                        metric: TraceMetric::parse(metric)?,
                        file: file.to_string(),
                        radix,
                    }
                }
                "diff" => {
                    flags.expect_only(&["--radix"])?;
                    let [a, b] = positional::<2>(pos, "trace diff <A> <B>")?;
                    TraceAction::Diff {
                        a: a.to_string(),
                        b: b.to_string(),
                        radix,
                    }
                }
                "prom" => {
                    flags.expect_only(&["--radix", "--threads"])?;
                    let [file] = positional::<1>(pos, "trace prom <file>")?;
                    TraceAction::Prom {
                        file: file.to_string(),
                        radix,
                        threads: parse_threads(&flags)?,
                    }
                }
                "export" => {
                    flags.expect_only(&["--radix"])?;
                    let [input, output] = positional::<2>(pos, "trace export <in> <out>")?;
                    TraceAction::Export {
                        input: input.to_string(),
                        output: output.to_string(),
                        radix,
                    }
                }
                other => {
                    return Err(format!("unknown trace action '{other}'\n\n{TRACE_USAGE}"));
                }
            };
            Ok(Command::Trace { action })
        }
        "multipath" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_empty()?;
            let [d, x, y] = positional::<3>(&pos, "multipath <d> <X> <Y>")?;
            Ok(Command::Multipath {
                d: parse_radix(d)?,
                x: x.to_string(),
                y: y.to_string(),
            })
        }
        "gdb" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_empty()?;
            let [d, n, i, j] = positional::<4>(&pos, "gdb <d> <N> <i> <j>")?;
            let num =
                |s: &str, what: &str| s.parse::<u64>().map_err(|_| format!("bad {what} '{s}'"));
            Ok(Command::Gdb {
                d: num(d, "d")?,
                n: num(n, "N")?,
                i: num(i, "i")?,
                j: num(j, "j")?,
            })
        }
        "disjoint" => {
            let (pos, flags) = split_flags(&rest);
            flags.expect_empty()?;
            let [d, x, y] = positional::<3>(&pos, "disjoint <d> <X> <Y>")?;
            Ok(Command::Disjoint {
                d: parse_radix(d)?,
                x: x.to_string(),
                y: y.to_string(),
            })
        }
        other => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    }
}

/// Lines per work unit in `route`/`distance` batch mode. The chunk
/// geometry — not the worker count — partitions the input, so the
/// output is byte-identical for every `--threads` value; within a chunk
/// the destination-major kernel amortizes per-destination work.
const BATCH_CHUNK: usize = 512;

/// Executes a command, returning its stdout text.
///
/// # Errors
///
/// Returns a human-readable message on invalid inputs (bad digits,
/// mismatched lengths, spaces too large to enumerate, …).
pub fn run(cmd: &Command) -> Result<String, String> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Route {
            d,
            pair,
            directed,
            engine,
            threads,
            batch,
        } => {
            let route_one = |x: &Word, y: &Word| {
                if *directed {
                    routing::algorithm1(x, y)
                } else {
                    routing::route_with_engine(x, y, *engine)
                }
            };
            match (pair, batch) {
                (Some((x, y)), _) => {
                    let (x, y) = parse_pair(*d, x, y)?;
                    let route = route_one(&x, &y);
                    writeln!(out, "distance: {}", route.len()).expect("write to string");
                    writeln!(out, "route:    {route}").expect("write to string");
                }
                (None, Some(file)) => {
                    // Fixed-size chunks through the destination-major
                    // kernel: per-destination preprocessing amortizes
                    // within each chunk, one scratch + route buffer per
                    // chunk instead of per line, and the chunk geometry
                    // (not the thread count) fixes the output, so
                    // `--threads` never changes a byte.
                    let text = run_batch(*d, file, *threads, |pairs, text| {
                        let mut scratch = debruijn_core::BatchScratch::new();
                        let mut routes = Vec::new();
                        debruijn_core::route_batch_into(
                            pairs,
                            *directed,
                            *engine,
                            &mut scratch,
                            &mut routes,
                        );
                        for r in &routes {
                            writeln!(text, "{} {r}", r.len()).expect("write to string");
                        }
                    })?;
                    out.push_str(&text);
                }
                (None, None) => unreachable!("parser guarantees pair or batch"),
            }
        }
        Command::Distance {
            d,
            pair,
            directed,
            engine,
            threads,
            batch,
        } => {
            let dist_one = |x: &Word, y: &Word| {
                if *directed {
                    distance::directed::distance(x, y)
                } else {
                    distance::undirected::distance_with(*engine, x, y)
                }
            };
            match (pair, batch) {
                (Some((x, y)), _) => {
                    let (x, y) = parse_pair(*d, x, y)?;
                    writeln!(out, "{}", dist_one(&x, &y)).expect("write to string");
                }
                (None, Some(file)) => {
                    let text = run_batch(*d, file, *threads, |pairs, text| {
                        let mut scratch = debruijn_core::BatchScratch::new();
                        let mut dists = Vec::new();
                        debruijn_core::distance_batch_into(
                            pairs,
                            *directed,
                            *engine,
                            &mut scratch,
                            &mut dists,
                        );
                        for dist in &dists {
                            writeln!(text, "{dist}").expect("write to string");
                        }
                    })?;
                    out.push_str(&text);
                }
                (None, None) => unreachable!("parser guarantees pair or batch"),
            }
        }
        Command::Sequence {
            d,
            n,
            prefer_largest,
        } => {
            if *d < 2 || *n < 1 {
                return Err("sequence requires d >= 2 and n >= 1".into());
            }
            if (*d as u128)
                .checked_pow(*n as u32)
                .is_none_or(|v| v > 1 << 24)
            {
                return Err("sequence too long to print (d^n > 2^24)".into());
            }
            let seq = if *prefer_largest {
                euler::de_bruijn_sequence_prefer_largest(*d, *n)
            } else {
                euler::de_bruijn_sequence(*d, *n)
            };
            let rendered: Vec<String> = seq.iter().map(u8::to_string).collect();
            let sep = if *d > 10 { "." } else { "" };
            writeln!(out, "{}", rendered.join(sep)).expect("write to string");
        }
        Command::Census { d, k } => {
            let space = space_of(*d, *k)?;
            let dg =
                DebruijnGraph::directed(space).map_err(|e| format!("cannot materialize: {e}"))?;
            let ug =
                DebruijnGraph::undirected(space).map_err(|e| format!("cannot materialize: {e}"))?;
            let dc = census::census(&dg);
            let uc = census::census(&ug);
            writeln!(out, "DG({d},{k}): {} vertices", dc.nodes).expect("write");
            writeln!(
                out,
                "directed:   {} arcs, diameter {}",
                dc.edges,
                diameter::diameter(&dg)
            )
            .expect("write");
            writeln!(
                out,
                "undirected: {} edges, diameter {}",
                uc.edges,
                diameter::diameter(&ug)
            )
            .expect("write");
            let mut t = Table::new(vec![
                "degree".into(),
                "directed".into(),
                "undirected".into(),
            ]);
            let degrees: std::collections::BTreeSet<usize> = dc
                .degree_histogram
                .keys()
                .chain(uc.degree_histogram.keys())
                .copied()
                .collect();
            for deg in degrees {
                t.row(vec![
                    deg.to_string(),
                    dc.degree_histogram
                        .get(&deg)
                        .copied()
                        .unwrap_or(0)
                        .to_string(),
                    uc.degree_histogram
                        .get(&deg)
                        .copied()
                        .unwrap_or(0)
                        .to_string(),
                ]);
            }
            write!(out, "{t}").expect("write to string");
        }
        Command::Average {
            d,
            k,
            directed,
            samples,
        } => {
            let space = space_of(*d, *k)?;
            let value = if *samples > 0 {
                average::sampled(space, *directed, *samples, 0xC11)
            } else if *directed {
                average::exact_directed(space)
            } else {
                average::exact_undirected(space)
            };
            writeln!(out, "{value:.6}").expect("write to string");
            if *directed {
                writeln!(
                    out,
                    "Eq.(5) approximation: {:.6}",
                    directed_average_distance(*d, *k)
                )
                .expect("write to string");
            }
        }
        Command::Simulate {
            d,
            k,
            messages,
            router,
            policy,
            seed,
            threads,
            shards,
            route_cache,
            metrics,
            trace,
            progress,
            chrome_trace,
            listen,
            metrics_out,
            flight_recorder,
            flight_capacity,
            faults,
            ttl,
            next_hop,
            workload: workload_kind,
            monitors,
            monitor_dump,
        } => {
            let space = space_of(*d, *k)?;
            let config = SimConfig {
                router: *router,
                policy: *policy,
                seed: *seed,
                threads: *threads,
                route_cache: *route_cache,
                ttl: *ttl,
                ..SimConfig::default()
            };
            let fault_words = parse_fault_words(*d, faults.as_deref())?;
            // --shards selects the time-stepped sharded engine (same
            // report for any shard/thread count); without it the
            // classic event-driven simulator runs.
            enum SimEngine {
                Classic(Simulation),
                Sharded(ShardedSimulation),
            }
            let engine = match shards {
                Some(s) => {
                    let mut sim = ShardedSimulation::new(space, config, *s)
                        .map_err(|e| e.to_string())?
                        .with_next_hop(*next_hop)
                        .map_err(|e| e.to_string())?;
                    if let Some(words) = fault_words {
                        sim = sim.with_faults(words).map_err(|e| e.to_string())?;
                    }
                    SimEngine::Sharded(sim)
                }
                None => {
                    if *next_hop != NextHopMode::Auto {
                        return Err("--next-hop requires the sharded engine (--shards)".into());
                    }
                    let mut sim = Simulation::new(space, config).map_err(|e| e.to_string())?;
                    if let Some(words) = fault_words {
                        sim = sim.with_faults(words).map_err(|e| e.to_string())?;
                    }
                    SimEngine::Classic(sim)
                }
            };
            let traffic = match workload_kind {
                WorkloadKind::Uniform => workload::uniform_random(space, *messages, *seed),
                WorkloadKind::Burst => workload::uniform_burst(space, *messages, *seed),
                WorkloadKind::Zipf(exp) => workload::zipf(space, *messages, *exp, *seed),
            };

            // One registry backs both exposure paths: the HTTP scrape
            // server (--listen) and the periodic file snapshot
            // (--metrics-out). The core profile counters join it as a
            // collector, so scrapes see engine/cache activity too.
            let registry = (listen.is_some() || metrics_out.is_some()).then(|| {
                let registry = Arc::new(MetricsRegistry::new());
                register_core_profile(&registry);
                registry
            });
            let mut registry_recorder = registry.as_ref().map(RegistryRecorder::new);
            let server = listen
                .as_ref()
                .map(|addr| {
                    let registry = registry.as_ref().expect("listen implies registry");
                    ScrapeServer::bind(addr.as_str(), Arc::clone(registry))
                        .map_err(|e| format!("cannot listen on '{addr}': {e}"))
                })
                .transpose()?;
            if let Some(server) = &server {
                // Announced on stderr (stdout carries the report), so
                // scripts binding port 0 can discover the address.
                eprintln!("listening on http://{}/metrics", server.local_addr());
            }
            let mut metrics_file = metrics_out
                .as_ref()
                .map(|path| MetricsFileWriter::new(registry.as_ref().cloned().unwrap(), path));
            let mut flight = flight_recorder.as_ref().map(|path| {
                FlightRecorder::new(*flight_capacity, AnomalyTriggers::default())
                    .with_dump_path(path)
            });
            let mut monitor_set = build_monitors(
                space,
                matches!(router, RouterKind::Algorithm1 | RouterKind::Trivial),
                *monitors,
            )?;

            let profile_before = profile::snapshot();
            let mut memory = InMemoryRecorder::new();
            let mut jsonl = trace
                .as_ref()
                .map(|path| {
                    std::fs::File::create(path)
                        .map(|f| JsonlRecorder::new(std::io::BufWriter::new(f)))
                        .map_err(|e| format!("cannot create trace file '{path}': {e}"))
                })
                .transpose()?;
            let mut chrome = chrome_trace
                .as_ref()
                .map(|path| {
                    std::fs::File::create(path)
                        .map(|f| ChromeTraceRecorder::new(std::io::BufWriter::new(f)))
                        .map_err(|e| format!("cannot create chrome trace '{path}': {e}"))
                })
                .transpose()?;
            let mut snapshots =
                progress.map(|every| SnapshotRecorder::new(every, std::io::stderr()));
            let report = {
                let mut fan = FanoutRecorder::new();
                if let Some(r) = registry_recorder.as_mut() {
                    fan.push(r);
                }
                if *metrics {
                    fan.push(&mut memory);
                }
                if let Some(j) = jsonl.as_mut() {
                    fan.push(j);
                }
                if let Some(c) = chrome.as_mut() {
                    fan.push(c);
                }
                if let Some(s) = snapshots.as_mut() {
                    fan.push(s);
                }
                // After the registry recorder, so snapshots include the
                // tick that triggered them.
                if let Some(w) = metrics_file.as_mut() {
                    fan.push(w);
                }
                if let Some(f) = flight.as_mut() {
                    fan.push(f);
                }
                if let Some(m) = monitor_set.as_mut() {
                    fan.push(m);
                }
                match &engine {
                    SimEngine::Classic(sim) => sim.run_recorded(&traffic, &mut fan),
                    SimEngine::Sharded(sim) => sim.run_recorded(&traffic, &mut fan),
                }
            };
            if let Some(s) = snapshots {
                s.finish().map_err(|e| format!("writing snapshots: {e}"))?;
            }
            let profile_used = profile::snapshot().since(&profile_before);

            write_report(&mut out, &report);
            if *metrics {
                writeln!(out, "\n== metrics ==").expect("write");
                write!(out, "{memory}").expect("write");
                writeln!(out, "\n== core profile (this run) ==").expect("write");
                writeln!(
                    out,
                    "distance engine solves: {} naive, {} morris-pratt, {} suffix-tree, {} bit-parallel",
                    profile_used.engine_naive,
                    profile_used.engine_morris_pratt,
                    profile_used.engine_suffix_tree,
                    profile_used.engine_bit_parallel
                )
                .expect("write");
                writeln!(
                    out,
                    "auto engine selection:  {} -> suffix-tree, {} -> bit-parallel",
                    profile_used.auto_to_suffix_tree, profile_used.auto_to_bit_parallel
                )
                .expect("write");
                match profile_used.route_cache_hit_rate() {
                    Some(rate) => writeln!(
                        out,
                        "route cache:            {} hits, {} misses, {} evictions ({:.1}% hit rate)",
                        profile_used.route_cache_hits,
                        profile_used.route_cache_misses,
                        profile_used.route_cache_evictions,
                        rate * 100.0
                    )
                    .expect("write"),
                    None => writeln!(out, "route cache:            unused").expect("write"),
                }
                match profile_used.convergecast_hit_rate() {
                    Some(rate) => writeln!(
                        out,
                        "convergecast cache:     {} builds, {} routes ({:.1}% hit rate)",
                        profile_used.convergecast_builds,
                        profile_used.convergecast_routes,
                        rate * 100.0
                    )
                    .expect("write"),
                    None => writeln!(out, "convergecast cache:     unused").expect("write"),
                }
            }
            if let Some(j) = jsonl {
                j.finish()
                    .and_then(|mut w| std::io::Write::flush(&mut w))
                    .map_err(|e| format!("writing trace: {e}"))?;
                writeln!(
                    out,
                    "trace written to {}",
                    trace.as_deref().unwrap_or_default()
                )
                .expect("write");
            }
            if let Some(c) = chrome {
                c.finish()
                    .and_then(|mut w| std::io::Write::flush(&mut w))
                    .map_err(|e| format!("writing chrome trace: {e}"))?;
                writeln!(
                    out,
                    "chrome trace written to {}",
                    chrome_trace.as_deref().unwrap_or_default()
                )
                .expect("write");
            }
            if let Some(f) = flight {
                let captures = f.capture_count();
                let path = flight_recorder.as_deref().unwrap_or_default();
                match f
                    .finish()
                    .map_err(|e| format!("writing flight-recorder dump: {e}"))?
                {
                    Some(anomaly) => {
                        writeln!(out, "flight recorder: {anomaly}; window dumped to {path}")
                            .expect("write");
                        if captures > 1 {
                            writeln!(
                                out,
                                "flight recorder: {} more capture(s) after re-arming; \
                                 windows numbered {path}.2 onward",
                                captures - 1
                            )
                            .expect("write");
                        }
                    }
                    None => writeln!(out, "flight recorder: no anomaly detected").expect("write"),
                }
            }
            if let Some(m) = monitor_set.as_ref() {
                writeln!(out, "\n== monitors ==").expect("write");
                // Exporting into the registry also performs the decode,
                // so the verdict counter and the printed verdict agree.
                let verdict = match registry.as_ref() {
                    Some(registry) => m.export(registry),
                    None => m.localize(),
                };
                write_monitor_report(&mut out, m, &verdict);
                if let Some(path) = monitor_dump {
                    m.dump_evidence(std::path::Path::new(path))
                        .map_err(|e| format!("writing monitor dump '{path}': {e}"))?;
                    writeln!(
                        out,
                        "monitor evidence ({} event(s)) dumped to {path}",
                        m.evidence_len()
                    )
                    .expect("write");
                }
            }
            if let Some(w) = metrics_file.take() {
                w.finish()?;
                writeln!(
                    out,
                    "metrics snapshot written to {}",
                    metrics_out.as_deref().unwrap_or_default()
                )
                .expect("write");
            }
            if let Some(server) = server {
                // Flush the report now: the scrape server keeps the
                // process alive until killed, and consumers should not
                // have to wait for the results.
                print!("{out}");
                out.clear();
                std::io::Write::flush(&mut std::io::stdout()).map_err(|e| e.to_string())?;
                server.block();
            }
        }
        Command::Profile {
            d,
            k,
            messages,
            router,
            policy,
            seed,
            threads,
            shards,
            next_hop,
            workload: workload_kind,
            faults,
            ttl,
            sample,
            top,
            profile_out,
            chrome_out,
            trace,
            metrics,
        } => {
            let space = space_of(*d, *k)?;
            let config = SimConfig {
                router: *router,
                policy: *policy,
                seed: *seed,
                threads: *threads,
                ttl: *ttl,
                ..SimConfig::default()
            };
            let mut sim = ShardedSimulation::new(space, config, *shards)
                .map_err(|e| e.to_string())?
                .with_next_hop(*next_hop)
                .map_err(|e| e.to_string())?;
            if let Some(words) = parse_fault_words(*d, faults.as_deref())? {
                sim = sim.with_faults(words).map_err(|e| e.to_string())?;
            }
            let traffic = match workload_kind {
                WorkloadKind::Uniform => workload::uniform_random(space, *messages, *seed),
                WorkloadKind::Burst => workload::uniform_burst(space, *messages, *seed),
                WorkloadKind::Zipf(exp) => workload::zipf(space, *messages, *exp, *seed),
            };
            let profile_cfg = ProfileConfig {
                sample_every: *sample,
                // Lap slices are only recorded when someone will render
                // them — they cost memory per window.
                slices: chrome_out.is_some(),
            };
            let mut memory = InMemoryRecorder::new();
            let mut jsonl = trace
                .as_ref()
                .map(|path| {
                    std::fs::File::create(path)
                        .map(|f| JsonlRecorder::new(std::io::BufWriter::new(f)))
                        .map_err(|e| format!("cannot create trace file '{path}': {e}"))
                })
                .transpose()?;
            let (report, profile) = {
                let mut fan = FanoutRecorder::new();
                if *metrics {
                    fan.push(&mut memory);
                }
                if let Some(j) = jsonl.as_mut() {
                    fan.push(j);
                }
                sim.run_profiled(&traffic, &mut fan, &profile_cfg)
            };
            // The same seven headline lines `dbr simulate` prints, so a
            // profiled run's report can be cmp'd against an unprofiled
            // one byte for byte.
            write_report(&mut out, &report);
            if *metrics {
                writeln!(out, "\n== metrics ==").expect("write");
                write!(out, "{memory}").expect("write");
                // The same phase data as dbr_engine_* registry
                // families, scrape-format, for machine consumption.
                let registry = MetricsRegistry::new();
                profile.export_to(&registry);
                writeln!(out, "\n== engine metrics ==").expect("write");
                out.push_str(&registry.snapshot().render());
            }
            writeln!(out).expect("write");
            out.push_str(&profile.render(*top));
            if let Some(path) = profile_out {
                std::fs::write(path, profile.to_json(*top))
                    .map_err(|e| format!("cannot write profile '{path}': {e}"))?;
                writeln!(out, "profile written to {path}").expect("write");
            }
            if let Some(path) = chrome_out {
                std::fs::write(path, profile.chrome_trace())
                    .map_err(|e| format!("cannot write engine chrome trace '{path}': {e}"))?;
                writeln!(out, "engine chrome trace written to {path}").expect("write");
            }
            if let Some(j) = jsonl {
                j.finish()
                    .and_then(|mut w| std::io::Write::flush(&mut w))
                    .map_err(|e| format!("writing trace: {e}"))?;
                writeln!(
                    out,
                    "trace written to {}",
                    trace.as_deref().unwrap_or_default()
                )
                .expect("write");
            }
        }
        Command::Serve {
            d,
            listen,
            threads,
            cache_capacity,
            max_inflight,
            batch,
            flight_dump,
        } => {
            let registry = Arc::new(MetricsRegistry::new());
            register_core_profile(&registry);
            let config = ServiceConfig {
                workers: *threads,
                cache_capacity: *cache_capacity,
                max_inflight: *max_inflight,
                batch: *batch,
                ..ServiceConfig::new(*d)
            };
            let mut dispatcher =
                debruijn_net::service::Dispatcher::new(config, Arc::clone(&registry));
            if let Some(path) = flight_dump {
                // Trip exactly when a worker queue first fills (the
                // moment shedding starts) and freeze the pre-overload
                // admission window as `dbr trace`-readable JSONL.
                let triggers = AnomalyTriggers {
                    drop_burst: None,
                    no_route_burst: None,
                    queue_depth_limit: Some(*max_inflight),
                    queue_wait_limit: None,
                };
                dispatcher = dispatcher
                    .with_flight_recorder(FlightRecorder::new(4096, triggers).with_dump_path(path));
            }
            let service =
                QueryService::bind_dispatcher(listen.as_str(), dispatcher, Arc::clone(&registry))
                    .map_err(|e| format!("cannot listen on '{listen}': {e}"))?;
            eprintln!("listening on http://{}/metrics", service.local_addr());
            println!(
                "serving radix-{d} route/distance queries on http://{} ({} workers, \
                 cache {cache_capacity}, max-inflight {max_inflight}, batch {batch})",
                service.local_addr(),
                service.dispatcher().workers(),
            );
            std::io::Write::flush(&mut std::io::stdout()).map_err(|e| e.to_string())?;
            let anomaly = service
                .block()
                .map_err(|e| format!("writing flight dump: {e}"))?;
            if let Some(anomaly) = anomaly {
                eprintln!("flight recorder: {anomaly}");
            }
            // End-of-run metrics dump: the final state of every
            // dbr_service_* family, scrape-identical text.
            out.push_str(&registry.snapshot().render());
        }
        Command::Localize {
            d,
            k,
            file,
            directed,
            monitors,
            threshold,
        } => {
            let space = space_of(*d, *k)?;
            let mut monitor_set = build_monitors(space, *directed, *monitors)?
                .expect("parser rejects --monitors none")
                .with_config(MonitorConfig {
                    threshold: *threshold,
                    ..MonitorConfig::default()
                });
            let text = std::fs::read_to_string(file)
                .map_err(|e| format!("cannot read trace '{file}': {e}"))?;
            let mut events = 0usize;
            for (number, line) in text.lines().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                let event =
                    parse_event(*d, line).map_err(|e| format!("{file}:{}: {e}", number + 1))?;
                monitor_set.record(&event);
                events += 1;
            }
            writeln!(out, "replayed:  {events} event(s) from {file}").expect("write");
            let verdict = monitor_set.localize();
            write_monitor_report(&mut out, &monitor_set, &verdict);
        }
        Command::Trace { action } => match action {
            TraceAction::Summary { file, radix } => {
                let t = trace::load(file, *radix)?;
                out.push_str(&trace::summary(&t));
            }
            TraceAction::Links { file, radix, top } => {
                let t = trace::load(file, *radix)?;
                out.push_str(&trace::links(&t, *top));
            }
            TraceAction::Hist {
                metric,
                file,
                radix,
            } => {
                let t = trace::load(file, *radix)?;
                out.push_str(&trace::hist(&t, *metric));
            }
            TraceAction::Diff { a, b, radix } => {
                let ta = trace::load(a, *radix)?;
                let tb = trace::load(b, *radix)?;
                out.push_str(&trace::diff(&ta, &tb));
            }
            TraceAction::Prom {
                file,
                radix,
                threads,
            } => {
                let t = trace::load(file, *radix)?;
                out.push_str(&trace::prom(&t, *threads));
            }
            TraceAction::Export {
                input,
                output,
                radix,
            } => {
                let t = trace::load(input, *radix)?;
                let file = std::fs::File::create(output)
                    .map_err(|e| format!("cannot create '{output}': {e}"))?;
                let events = t.events.len();
                trace::export(&t, std::io::BufWriter::new(file))
                    .and_then(|mut w| std::io::Write::flush(&mut w))
                    .map_err(|e| format!("writing '{output}': {e}"))?;
                writeln!(out, "exported {events} event(s) to {output}").expect("write");
            }
        },
        Command::Multipath { d, x, y } => {
            let (x, y) = parse_pair(*d, x, y)?;
            let routes = routing::all_shortest_routes(&x, &y);
            writeln!(
                out,
                "{} shortest route(s) of length {}:",
                routes.len(),
                routes[0].len()
            )
            .expect("write");
            for r in &routes {
                writeln!(out, "  {r}").expect("write");
            }
        }
        Command::Gdb { d, n, i, j } => {
            let g = debruijn_graph::generalized::Gdb::new(*d, *n)?;
            if *i >= *n || *j >= *n {
                return Err(format!("vertices must be below N = {n}"));
            }
            let route = g.route(*i, *j);
            writeln!(out, "GDB({d},{n}): diameter bound {}", g.diameter_bound()).expect("write");
            writeln!(out, "distance {i} -> {j}: {}", route.len()).expect("write");
            let rendered: Vec<String> = route.iter().map(u64::to_string).collect();
            writeln!(out, "digits: [{}]", rendered.join(", ")).expect("write");
        }
        Command::Disjoint { d, x, y } => {
            let (x, y) = parse_pair(*d, x, y)?;
            if x == y {
                return Err("endpoints must differ".into());
            }
            let space = space_of(*d, x.len())?;
            let graph =
                DebruijnGraph::undirected(space).map_err(|e| format!("cannot materialize: {e}"))?;
            let paths = debruijn_graph::disjoint::vertex_disjoint_paths(
                &graph,
                graph.rank_of(&x),
                graph.rank_of(&y),
                *d as usize + 1,
            );
            writeln!(out, "{} internally vertex-disjoint path(s):", paths.len()).expect("write");
            for p in &paths {
                let words: Vec<String> = p.iter().map(|&v| graph.word_of(v).to_string()).collect();
                writeln!(out, "  {}", words.join(" -> ")).expect("write");
            }
        }
    }
    Ok(out)
}

/// How often `--metrics-out` rewrites its snapshot file, in simulated
/// ticks.
const METRICS_OUT_EVERY: u64 = 1000;

/// A [`Recorder`] that periodically renders the registry to a file, so
/// external collectors can tail a run without the HTTP listener. The
/// final state is written by [`MetricsFileWriter::finish`].
struct MetricsFileWriter {
    registry: Arc<MetricsRegistry>,
    path: String,
    next: u64,
    error: Option<String>,
}

impl MetricsFileWriter {
    fn new(registry: Arc<MetricsRegistry>, path: &str) -> Self {
        Self {
            registry,
            path: path.to_string(),
            next: 0,
            error: None,
        }
    }

    fn write_snapshot(&mut self) {
        if let Err(e) = std::fs::write(&self.path, self.registry.snapshot().render()) {
            self.error = Some(format!("writing metrics snapshot '{}': {e}", self.path));
        }
    }

    /// Writes the end-of-run snapshot, surfacing the first error.
    fn finish(mut self) -> Result<(), String> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.write_snapshot();
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl Recorder for MetricsFileWriter {
    fn enabled(&self) -> bool {
        self.error.is_none()
    }

    fn record(&mut self, event: &NetEvent) {
        if self.error.is_some() {
            return;
        }
        let now = event.time();
        if now >= self.next {
            self.next = now + METRICS_OUT_EVERY;
            self.write_snapshot();
        }
    }
}

/// The seven-line headline block shared by `dbr simulate` and
/// `dbr profile` — kept in one place so a profiled run's report can be
/// `cmp`'d byte for byte against an unprofiled one.
fn write_report(out: &mut String, report: &SimReport) {
    let loads = report.link_load_summary();
    writeln!(
        out,
        "delivered:    {}/{}",
        report.delivered, report.injected
    )
    .expect("write");
    writeln!(
        out,
        "dropped:      {}",
        trace::drop_breakdown(&report.dropped_by_reason)
    )
    .expect("write");
    writeln!(out, "mean hops:    {:.4}", report.mean_hops()).expect("write");
    writeln!(out, "mean latency: {:.4}", report.mean_latency()).expect("write");
    writeln!(out, "max latency:  {}", report.latency_max).expect("write");
    writeln!(out, "makespan:     {}", report.makespan).expect("write");
    writeln!(
        out,
        "max link load: {} (std {:.3})",
        loads.max, loads.std_dev
    )
    .expect("write");
}

/// Parses a `--faults W1,W2` list into words of radix `d`.
fn parse_fault_words(d: u8, faults: Option<&str>) -> Result<Option<Vec<Word>>, String> {
    faults
        .map(|list| {
            list.split(',')
                .map(|w| Word::parse(d, w.trim()).map_err(|e| format!("bad fault '{w}': {e}")))
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()
}

/// Builds the `--monitors` placement on the graph matching the route
/// direction: Algorithm 1 and the trivial router only shift left, so a
/// fault is witnessed by its *directed* in-ball; Algorithms 2/4 route
/// on the bidirectional network, so the undirected ball applies.
fn build_monitors(
    space: DeBruijn,
    directed: bool,
    choice: MonitorChoice,
) -> Result<Option<MonitorSet>, String> {
    if choice == MonitorChoice::None {
        return Ok(None);
    }
    let graph = if directed {
        DebruijnGraph::directed(space)
    } else {
        DebruijnGraph::undirected(space)
    }
    .map_err(|e| e.to_string())?;
    match choice {
        MonitorChoice::None => unreachable!("handled above"),
        MonitorChoice::Identifying => MonitorSet::identifying(graph)
            .map(Some)
            .map_err(|e| format!("cannot place identifying monitors: {e}")),
        MonitorChoice::All => Ok(Some(MonitorSet::all(graph))),
    }
}

/// The monitor placement line, evidence table and verdict shared by
/// `dbr simulate --monitors` and `dbr localize`.
fn write_monitor_report(out: &mut String, monitors: &MonitorSet, verdict: &Verdict) {
    writeln!(
        out,
        "placement: {} — {} of {} nodes",
        monitors.placement().name(),
        monitors.monitors().len(),
        monitors.graph().node_count()
    )
    .expect("write");
    let readings = monitors.readings();
    if readings.is_empty() {
        writeln!(out, "flagged:   none").expect("write");
    } else {
        writeln!(out, "flagged:   {} monitor(s)", readings.len()).expect("write");
        for reading in &readings {
            let kinds: Vec<String> = reading
                .by_kind
                .iter()
                .map(|(kind, n)| format!("{kind} {n}"))
                .collect();
            writeln!(
                out,
                "  {}  total {}  ({})",
                reading.node,
                reading.total,
                kinds.join(", ")
            )
            .expect("write");
        }
    }
    writeln!(out, "verdict:   {verdict}").expect("write");
}

fn space_of(d: u8, k: usize) -> Result<DeBruijn, String> {
    let space = DeBruijn::new(d, k).map_err(|e| e.to_string())?;
    if space.order_usize().is_none() {
        return Err(format!("DG({d},{k}) is too large to enumerate"));
    }
    Ok(space)
}

fn parse_pair(d: u8, x: &str, y: &str) -> Result<(Word, Word), String> {
    let x = Word::parse(d, x).map_err(|e| format!("bad X: {e}"))?;
    let y = Word::parse(d, y).map_err(|e| format!("bad Y: {e}"))?;
    if !x.same_space(&y) {
        return Err("X and Y must have the same length".into());
    }
    Ok((x, y))
}

fn parse_radix(s: &str) -> Result<u8, String> {
    s.parse::<u8>().map_err(|_| format!("bad radix '{s}'"))
}

fn parse_engine(value: Option<&str>) -> Result<Engine, String> {
    match value {
        None | Some("auto") => Ok(Engine::Auto),
        Some("naive") => Ok(Engine::Naive),
        Some("mp") => Ok(Engine::MorrisPratt),
        Some("suffix-tree") => Ok(Engine::SuffixTree),
        Some("bit-parallel") => Ok(Engine::BitParallel),
        Some(other) => Err(format!("unknown engine '{other}'")),
    }
}

fn parse_router(value: Option<&str>) -> Result<RouterKind, String> {
    match value {
        None | Some("alg2") => Ok(RouterKind::Algorithm2),
        Some("trivial") => Ok(RouterKind::Trivial),
        Some("alg1") => Ok(RouterKind::Algorithm1),
        Some("alg4") => Ok(RouterKind::Algorithm4),
        Some(other) => Err(format!("unknown router '{other}'")),
    }
}

fn parse_policy(value: Option<&str>) -> Result<WildcardPolicy, String> {
    match value {
        None | Some("zero") => Ok(WildcardPolicy::Zero),
        Some("random") => Ok(WildcardPolicy::Random),
        Some("round-robin") => Ok(WildcardPolicy::RoundRobin),
        Some("least-loaded") => Ok(WildcardPolicy::LeastLoaded),
        Some(other) => Err(format!("unknown policy '{other}'")),
    }
}

fn parse_next_hop(value: Option<&str>) -> Result<NextHopMode, String> {
    match value {
        None | Some("auto") => Ok(NextHopMode::Auto),
        Some("dense") => Ok(NextHopMode::Dense),
        Some("compressed") => Ok(NextHopMode::Compressed),
        Some("fallback") => Ok(NextHopMode::Fallback),
        Some(other) => Err(format!(
            "unknown next-hop tier '{other}' (auto|dense|compressed|fallback)"
        )),
    }
}

fn parse_seed(flags: &Flags<'_>) -> Result<u64, String> {
    flags
        .value("--seed")?
        .map(|v| v.parse::<u64>().map_err(|_| format!("bad seed '{v}'")))
        .transpose()
        .map(|s| s.unwrap_or(0xDB))
}

fn parse_threads(flags: &Flags<'_>) -> Result<usize, String> {
    flags
        .value("--threads")?
        .map(|v| parse_num(v, "threads"))
        .transpose()
        .map(|t| t.unwrap_or(1))
}

/// Positional grammar shared by `route`/`distance`: `<d> <X> <Y>` for a
/// single pair, just `<d>` when `--batch` supplies the pairs.
fn pair_or_batch(
    pos: &[&str],
    batch: bool,
    cmd: &str,
) -> Result<(u8, Option<(String, String)>), String> {
    if batch {
        let [d] = positional::<1>(pos, &format!("{cmd} <d> --batch FILE"))?;
        Ok((parse_radix(d)?, None))
    } else {
        let [d, x, y] = positional::<3>(pos, &format!("{cmd} <d> <X> <Y>"))?;
        Ok((parse_radix(d)?, Some((x.to_string(), y.to_string()))))
    }
}

/// Answers a batch file (or stdin for `-`) of "X Y" pairs, whitespace
/// separated, one per line, in fixed chunks of [`BATCH_CHUNK`] pairs.
///
/// Only the line split is serial: blank lines and `#` comments are
/// skipped there, so every chunk but the last holds `BATCH_CHUNK` pairs.
/// Each chunk's lines are parsed inside its `map_chunks` worker, then
/// `answer` appends the chunk's output. A bad line fails the batch with
/// the error of the earliest one in the file, for any thread count.
fn run_batch(
    d: u8,
    path: &str,
    threads: usize,
    answer: impl Fn(&[(Word, Word)], &mut String) + Sync,
) -> Result<String, String> {
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read batch '{path}': {e}"))?
    };
    let lines: Vec<(usize, &str)> = text
        .lines()
        .map(str::trim)
        .enumerate()
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .collect();
    let chunks = debruijn_parallel::map_chunks(threads, lines.len(), BATCH_CHUNK, |range| {
        let mut pairs = Vec::with_capacity(range.len());
        for &(lineno, line) in &lines[range] {
            let mut it = line.split_whitespace();
            let (Some(x), Some(y), None) = (it.next(), it.next(), it.next()) else {
                return Err(format!("batch line {}: expected 'X Y'", lineno + 1));
            };
            pairs.push(parse_pair(d, x, y).map_err(|e| format!("batch line {}: {e}", lineno + 1))?);
        }
        let mut out = String::new();
        answer(&pairs, &mut out);
        Ok(out)
    });
    let mut out = String::new();
    for chunk in chunks {
        out.push_str(&chunk?);
    }
    Ok(out)
}

fn parse_num(s: &str, what: &str) -> Result<usize, String> {
    s.parse::<usize>().map_err(|_| format!("bad {what} '{s}'"))
}

fn positional<'a, const N: usize>(pos: &[&'a str], usage: &str) -> Result<[&'a str; N], String> {
    if pos.len() != N {
        return Err(format!(
            "expected {usage}, got {} positional arguments",
            pos.len()
        ));
    }
    let mut out = [""; N];
    out.copy_from_slice(pos);
    Ok(out)
}

/// Flags split out of an argument list: `--name value` and bare `--name`.
struct Flags<'a> {
    items: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn has(&self, name: &str) -> Result<bool, String> {
        for (n, v) in &self.items {
            if *n == name {
                if v.is_some() {
                    return Err(format!("flag {name} takes no value"));
                }
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn value(&self, name: &str) -> Result<Option<&'a str>, String> {
        for (n, v) in &self.items {
            if *n == name {
                return v
                    .map(Some)
                    .ok_or_else(|| format!("flag {name} needs a value"));
            }
        }
        Ok(None)
    }

    fn expect_empty(&self) -> Result<(), String> {
        self.expect_only(&[])
    }

    /// Rejects any flag the command's grammar does not declare, so a
    /// typo like `--metricss` fails loudly instead of being ignored.
    fn expect_only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.items.iter().find(|(n, _)| !allowed.contains(n)) {
            Some((n, _)) => Err(format!("unexpected flag {n}")),
            None => Ok(()),
        }
    }
}

fn split_flags<'a>(args: &[&'a str]) -> (Vec<&'a str>, Flags<'a>) {
    let mut pos = Vec::new();
    let mut items = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = args[i];
        if let Some(stripped) = a.strip_prefix("--") {
            // Bare boolean flags are the ones our grammar declares;
            // everything else consumes the following token as its value.
            let bare = matches!(stripped, "directed" | "prefer-largest" | "metrics");
            if bare {
                items.push((a, None));
            } else if i + 1 < args.len() {
                items.push((a, Some(args[i + 1])));
                i += 1;
            } else {
                items.push((a, None));
            }
        } else {
            pos.push(a);
        }
        i += 1;
    }
    (pos, Flags { items })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Command, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn parses_route_with_flags() {
        let cmd = parse_line("route 2 0110 1011 --engine suffix-tree").unwrap();
        assert_eq!(
            cmd,
            Command::Route {
                d: 2,
                pair: Some(("0110".into(), "1011".into())),
                directed: false,
                engine: Engine::SuffixTree,
                threads: 1,
                batch: None,
            }
        );
    }

    #[test]
    fn parses_directed_distance() {
        let cmd = parse_line("distance 3 012 210 --directed").unwrap();
        assert!(matches!(cmd, Command::Distance { directed: true, .. }));
    }

    #[test]
    fn parses_engine_threads_and_batch_flags() {
        let cmd = parse_line("distance 2 --batch pairs.txt --threads 8 --engine bit-parallel");
        assert_eq!(
            cmd.unwrap(),
            Command::Distance {
                d: 2,
                pair: None,
                directed: false,
                engine: Engine::BitParallel,
                threads: 8,
                batch: Some("pairs.txt".into()),
            }
        );
        // A pair and --batch together is an arity error, as is neither.
        assert!(parse_line("distance 2 01 10 --batch pairs.txt").is_err());
        assert!(parse_line("distance 2").is_err());
        assert!(parse_line("distance 2 01 10 --engine quantum").is_err());
        let cmd = parse_line("simulate 2 6 --threads 4 --route-cache 0").unwrap();
        assert!(matches!(
            cmd,
            Command::Simulate {
                threads: 4,
                route_cache: 0,
                ..
            }
        ));
    }

    #[test]
    fn batch_distance_is_identical_for_any_thread_count() {
        // All ordered pairs of DG(2,4) through the batch driver: the
        // fan-out must be invisible in the output, and every engine must
        // agree with the default.
        let sp = DeBruijn::new(2, 4).unwrap();
        let mut lines = String::new();
        for x in sp.vertices() {
            for y in sp.vertices() {
                lines.push_str(&format!("{x} {y}\n"));
            }
        }
        let path = std::env::temp_dir().join(format!("dbr-batch-{}.txt", std::process::id()));
        std::fs::write(&path, &lines).unwrap();
        let path_str = path.to_str().unwrap();
        let run_with = |extra: &str| {
            run(&parse_line(&format!("distance 2 --batch {path_str} {extra}")).unwrap()).unwrap()
        };
        let serial = run_with("--threads 1");
        assert_eq!(serial, run_with("--threads 8"), "threaded batch differs");
        for engine in ["naive", "mp", "suffix-tree", "bit-parallel", "auto"] {
            assert_eq!(serial, run_with(&format!("--engine {engine}")), "{engine}");
        }
        let route_serial =
            run(&parse_line(&format!("route 2 --batch {path_str} --threads 1")).unwrap()).unwrap();
        let route_par =
            run(&parse_line(&format!("route 2 --batch {path_str} --threads 8")).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(route_serial, route_par);
        // Each batch route line is "<len> <route>", one per pair.
        assert_eq!(route_serial.lines().count(), 16 * 16);
    }

    #[test]
    fn batch_errors_name_the_earliest_bad_line_for_any_thread_count() {
        // Bad lines in the second and third chunk; the comment and blank
        // lines count toward line numbers but not toward chunk sizes.
        let path = std::env::temp_dir().join(format!("dbr-badbatch-{}.txt", std::process::id()));
        let write = |bad: &[(usize, &str)]| {
            let mut text = String::from("# header\n\n");
            for i in 0..1500 {
                let line = bad
                    .iter()
                    .find(|(at, _)| *at == i)
                    .map_or("0101 1010", |b| b.1);
                text.push_str(line);
                text.push('\n');
            }
            std::fs::write(&path, text).unwrap();
        };
        let path_str = path.to_str().unwrap().to_string();
        let errors = |cmd: &str| -> Vec<String> {
            [1, 2, 8]
                .map(|t| {
                    run(&parse_line(&format!("{cmd} 2 --batch {path_str} --threads {t}")).unwrap())
                        .unwrap_err()
                })
                .to_vec()
        };
        write(&[(700, "0101 01x1"), (1300, "0101")]);
        for cmd in ["distance", "route"] {
            for e in errors(cmd) {
                assert!(e.starts_with("batch line 703: bad Y"), "{cmd}: {e}");
            }
        }
        write(&[(1300, "0101")]);
        for e in errors("distance") {
            assert_eq!(e, "batch line 1303: expected 'X Y'");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parses_monitor_flags_and_localize() {
        let cmd = parse_line("simulate 2 6 --monitors identifying --monitor-dump ev.jsonl");
        assert!(matches!(
            cmd.unwrap(),
            Command::Simulate {
                monitors: MonitorChoice::Identifying,
                ..
            }
        ));
        let cmd = parse_line("localize 2 6 t.jsonl --directed --threshold 3").unwrap();
        assert_eq!(
            cmd,
            Command::Localize {
                d: 2,
                k: 6,
                file: "t.jsonl".into(),
                directed: true,
                monitors: MonitorChoice::Identifying,
                threshold: 3,
            }
        );
        assert!(parse_line("simulate 2 6 --monitors sometimes").is_err());
        assert!(parse_line("localize 2 6 t.jsonl --monitors none").is_err());
        assert!(parse_line("localize 2 6 t.jsonl --threshold 0").is_err());
    }

    #[test]
    fn simulate_monitors_localize_the_injected_fault_and_replay_agrees() {
        let dir = std::env::temp_dir().join("dbr-cli-localize");
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join(format!("t-{}.jsonl", std::process::id()));
        let trace_str = trace.to_str().unwrap();
        let sim = run(&parse_line(&format!(
            "simulate 2 6 --messages 300 --shards 2 --seed 7 --faults 010101 \
             --monitors identifying --trace {trace_str}"
        ))
        .unwrap())
        .unwrap();
        assert!(
            sim.contains("verdict:   exact — faulty node 010101"),
            "{sim}"
        );
        // Replaying the same trace offline reaches the same verdict.
        let loc = run(&parse_line(&format!("localize 2 6 {trace_str}")).unwrap()).unwrap();
        assert!(
            loc.contains("verdict:   exact — faulty node 010101"),
            "{loc}"
        );
        std::fs::remove_file(&trace).ok();
        // `--monitors none` leaves the output byte-identical.
        let base = "simulate 2 6 --messages 300 --shards 2 --seed 7 --faults 010101";
        let bare = run(&parse_line(base).unwrap()).unwrap();
        let none = run(&parse_line(&format!("{base} --monitors none")).unwrap()).unwrap();
        assert_eq!(bare, none);
    }

    #[test]
    fn simulate_reports_match_for_any_thread_count_and_cache_size() {
        let base = "simulate 2 6 --messages 400 --router alg2 --seed 3";
        let want = run(&parse_line(base).unwrap()).unwrap();
        for extra in [
            "--threads 8",
            "--route-cache 0",
            "--threads 8 --route-cache 0",
        ] {
            let got = run(&parse_line(&format!("{base} {extra}")).unwrap()).unwrap();
            assert_eq!(want, got, "{extra}");
        }
    }

    #[test]
    fn parses_profile_flags_with_defaults() {
        let cmd = parse_line("profile 2 6").unwrap();
        assert!(
            matches!(
                cmd,
                Command::Profile {
                    d: 2,
                    k: 6,
                    messages: 1000,
                    shards: 4,
                    sample: 64,
                    top: 5,
                    metrics: false,
                    ..
                }
            ),
            "{cmd:?}"
        );
        let cmd = parse_line(
            "profile 2 8 --messages 500 --shards 8 --threads 2 --sample 16 --top 3 \
             --profile-out p.json --chrome-out c.json --next-hop compressed --workload zipf:1.2",
        )
        .unwrap();
        match cmd {
            Command::Profile {
                messages,
                shards,
                threads,
                sample,
                top,
                profile_out,
                chrome_out,
                next_hop,
                workload,
                ..
            } => {
                assert_eq!(messages, 500);
                assert_eq!(shards, 8);
                assert_eq!(threads, 2);
                assert_eq!(sample, 16);
                assert_eq!(top, 3);
                assert_eq!(profile_out.as_deref(), Some("p.json"));
                assert_eq!(chrome_out.as_deref(), Some("c.json"));
                assert_eq!(next_hop, NextHopMode::Compressed);
                assert_eq!(workload, WorkloadKind::Zipf(1.2));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_line("profile 2").is_err(), "missing k");
        assert!(parse_line("profile 2 6 --shards 0").is_err());
        assert!(parse_line("profile 2 6 --samples 8").is_err(), "typo flag");
    }

    #[test]
    fn profile_report_matches_simulate_and_emits_engine_sections() {
        let params = "2 6 --messages 300 --shards 4 --threads 2 --seed 9";
        let sim = run(&parse_line(&format!("simulate {params}")).unwrap()).unwrap();
        let tmp = std::env::temp_dir();
        let json_path = tmp.join(format!("dbr-prof-{}.json", std::process::id()));
        let chrome_path = tmp.join(format!("dbr-prof-{}.chrome.json", std::process::id()));
        let prof = run(&parse_line(&format!(
            "profile {params} --sample 8 --metrics --profile-out {} --chrome-out {}",
            json_path.display(),
            chrome_path.display()
        ))
        .unwrap())
        .unwrap();
        // The seven headline lines are byte-identical: the profiler
        // observes without perturbing the report.
        let head = |s: &str| s.lines().take(7).collect::<Vec<_>>().join("\n");
        assert_eq!(head(&sim), head(&prof));
        for needle in [
            "== engine profile ==",
            "phase",
            "barrier",
            "imbalance:",
            "sampler:      1/8",
            "critical paths",
            "profile written to",
            "engine chrome trace written to",
            "== engine metrics ==",
            "dbr_engine_phase_nanos_total{phase=\"compute\"}",
            "dbr_engine_sampled_messages_total",
        ] {
            assert!(prof.contains(needle), "missing {needle:?} in:\n{prof}");
        }
        let json = std::fs::read_to_string(&json_path).unwrap();
        std::fs::remove_file(&json_path).ok();
        for key in [
            "\"schema\": \"dbr-engine-profile/v1\"",
            "\"phases\": [",
            "\"critical_paths\": [",
            "\"imbalance\": {",
        ] {
            assert!(json.contains(key), "missing {key:?} in:\n{json}");
        }
        let chrome = std::fs::read_to_string(&chrome_path).unwrap();
        std::fs::remove_file(&chrome_path).ok();
        assert!(chrome.starts_with("[\n{"), "{chrome}");
        assert!(chrome.ends_with("\n]\n"), "{chrome}");
        assert!(chrome.contains("\"ph\":\"X\""), "phase slices present");
    }

    #[test]
    fn simulate_next_hop_and_workload_flags_work_end_to_end() {
        // Parsing: tiers and workloads round-trip, junk is rejected.
        assert!(matches!(
            parse_line("simulate 2 6 --shards 2 --next-hop compressed --workload zipf:1.5")
                .unwrap(),
            Command::Simulate {
                next_hop: NextHopMode::Compressed,
                workload: WorkloadKind::Zipf(exp),
                ..
            } if exp == 1.5
        ));
        assert!(matches!(
            parse_line("simulate 2 6 --workload zipf").unwrap(),
            Command::Simulate {
                next_hop: NextHopMode::Auto,
                workload: WorkloadKind::Zipf(exp),
                ..
            } if exp == 1.0
        ));
        assert!(matches!(
            parse_line("simulate 2 6 --workload burst").unwrap(),
            Command::Simulate {
                workload: WorkloadKind::Burst,
                ..
            }
        ));
        assert!(parse_line("simulate 2 6 --next-hop turbo").is_err());
        assert!(parse_line("simulate 2 6 --workload zipf:-1").is_err());
        assert!(parse_line("simulate 2 6 --workload poisson").is_err());
        // --next-hop is a sharded-engine switch.
        let err = run(&parse_line("simulate 2 5 --next-hop dense").unwrap()).unwrap_err();
        assert!(err.contains("--shards"), "{err}");

        // Execution: the compressed tier on a 4x4 grid reproduces the
        // single-threaded dense run byte for byte, on a skewed workload.
        let base = "simulate 2 6 --messages 300 --router alg2 --seed 5 --workload zipf:1.2";
        let dense =
            run(&parse_line(&format!("{base} --shards 1 --next-hop dense")).unwrap()).unwrap();
        let compressed = run(&parse_line(&format!(
            "{base} --shards 4 --threads 4 --next-hop compressed"
        ))
        .unwrap())
        .unwrap();
        assert_eq!(dense, compressed);
        assert!(dense.contains("delivered:    300/300"), "{dense}");
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse_line(
            "simulate 2 6 --listen 127.0.0.1:0 --metrics-out m.prom \
             --flight-recorder f.jsonl --flight-capacity 128 --faults 000000,111111 --ttl 9",
        )
        .unwrap();
        match cmd {
            Command::Simulate {
                listen,
                metrics_out,
                flight_recorder,
                flight_capacity,
                faults,
                ttl,
                ..
            } => {
                assert_eq!(listen.as_deref(), Some("127.0.0.1:0"));
                assert_eq!(metrics_out.as_deref(), Some("m.prom"));
                assert_eq!(flight_recorder.as_deref(), Some("f.jsonl"));
                assert_eq!(flight_capacity, 128);
                assert_eq!(faults.as_deref(), Some("000000,111111"));
                assert_eq!(ttl, 9);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: no listeners, 4096-event ring, no hop budget.
        assert!(matches!(
            parse_line("simulate 2 6").unwrap(),
            Command::Simulate {
                listen: None,
                metrics_out: None,
                flight_recorder: None,
                flight_capacity: 4096,
                faults: None,
                ttl: 0,
                ..
            }
        ));
        assert!(parse_line("simulate 2 6 --flight-capacity 0").is_err());
        assert!(parse_line("simulate 2 6 --ttl x").is_err());
        assert_eq!(
            parse_line("serve 2").unwrap(),
            Command::Serve {
                d: 2,
                listen: "127.0.0.1:0".into(),
                threads: 0,
                cache_capacity: 4096,
                max_inflight: 256,
                batch: 32,
                flight_dump: None,
            }
        );
        assert_eq!(
            parse_line(
                "serve 3 --listen 0.0.0.0:9100 --threads 4 --cache-capacity 128 \
                 --max-inflight 64 --batch 8 --flight-dump overload.jsonl"
            )
            .unwrap(),
            Command::Serve {
                d: 3,
                listen: "0.0.0.0:9100".into(),
                threads: 4,
                cache_capacity: 128,
                max_inflight: 64,
                batch: 8,
                flight_dump: Some("overload.jsonl".into()),
            }
        );
        assert!(parse_line("serve").is_err());
        assert!(parse_line("serve 2 --max-inflight 0").is_err());
        assert!(parse_line("serve 2 --batch 0").is_err());
        assert_eq!(
            parse_line("trace prom run.jsonl --threads 4").unwrap(),
            Command::Trace {
                action: TraceAction::Prom {
                    file: "run.jsonl".into(),
                    radix: None,
                    threads: 4,
                }
            }
        );
    }

    #[test]
    fn simulate_ttl_and_faults_break_out_the_dropped_line() {
        // Clean run: an explicit zero.
        let out = run(&parse_line("simulate 2 5 --messages 100 --seed 4").unwrap()).unwrap();
        assert!(out.contains("dropped:      0\n"), "{out}");
        // Trivial routing always takes k = 5 hops; a 3-hop budget kills
        // every message that is not already at its destination.
        let out = run(
            &parse_line("simulate 2 5 --messages 100 --router trivial --ttl 3 --seed 4").unwrap(),
        )
        .unwrap();
        assert!(out.contains("(ttl "), "{out}");
        // A faulty node attributes losses to the fault reasons.
        let out = run(&parse_line("simulate 2 5 --messages 200 --faults 00000 --seed 4").unwrap())
            .unwrap();
        assert!(out.contains("faulty-"), "{out}");
        assert!(!out.contains("dropped:      0\n"), "{out}");
        let err = run(&parse_line("simulate 2 5 --faults 00000,0x1").unwrap()).unwrap_err();
        assert!(err.contains("bad fault"), "{err}");
    }

    #[test]
    fn simulate_metrics_out_writes_prometheus_text() {
        let path = std::env::temp_dir().join(format!("dbr-mout-{}.prom", std::process::id()));
        let path_str = path.to_str().unwrap();
        let line = format!("simulate 2 5 --messages 120 --seed 2 --metrics-out {path_str}");
        let out = run(&parse_line(&line).unwrap()).unwrap();
        assert!(out.contains("metrics snapshot written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.contains("dbr_sim_injected_total 120"), "{text}");
        assert!(text.contains("dbr_sim_delivered_total 120"), "{text}");
        assert!(text.contains("dbr_link_forward_total{"), "{text}");
        // The core profile collector is registered alongside the
        // simulator's own counters.
        assert!(text.contains("dbr_core_engine_solves_total{"), "{text}");
        assert!(text.contains("dbr_core_route_cache_total{"), "{text}");
    }

    #[test]
    fn simulate_flight_recorder_dump_round_trips_through_trace_summary() {
        let dir = std::env::temp_dir();
        let dump = dir.join(format!("dbr-flight-cli-{}.jsonl", std::process::id()));
        let dump_str = dump.to_str().unwrap();
        // A faulty node sheds enough messages at injection time to trip
        // the default drop-burst trigger (8 drops in 128 ticks).
        let line = format!(
            "simulate 2 5 --messages 400 --faults 00000 --seed 4 --flight-recorder {dump_str}"
        );
        let out = run(&parse_line(&line).unwrap()).unwrap();
        assert!(out.contains("flight recorder: "), "{out}");
        assert!(out.contains("window dumped to"), "{out}");
        // The dump is a regular trace: `dbr trace summary` parses it and
        // shows the per-reason drop breakdown.
        let summary = run(&parse_line(&format!("trace summary {dump_str}")).unwrap()).unwrap();
        std::fs::remove_file(&dump).ok();
        assert!(summary.contains("dropped ("), "{summary}");
        assert!(summary.contains("dropped:      "), "{summary}");
        // A clean run arms but never fires.
        let line = format!("simulate 2 5 --messages 50 --flight-recorder {dump_str}");
        let out = run(&parse_line(&line).unwrap()).unwrap();
        assert!(
            out.contains("flight recorder: no anomaly detected"),
            "{out}"
        );
        assert!(!dump.exists(), "no dump without an anomaly");
    }

    #[test]
    fn zipf_skew_trips_the_queue_depth_trigger_through_the_cli() {
        let dir = std::env::temp_dir();
        let dump = dir.join(format!("dbr-flight-zipf-cli-{}.jsonl", std::process::id()));
        let dump_str = dump.to_str().unwrap();
        // A heavy zipf burst funnels most of the traffic into rank 0,
        // whose in-links back up past the default 1024 high-water mark.
        let line = format!(
            "simulate 2 6 --messages 12000 --workload zipf:2.5 --flight-recorder {dump_str}"
        );
        let out = run(&parse_line(&line).unwrap()).unwrap();
        assert!(out.contains("queue high-water breach"), "{out}");
        let summary = run(&parse_line(&format!("trace summary {dump_str}")).unwrap()).unwrap();
        std::fs::remove_file(&dump).ok();
        assert!(summary.contains("events:"), "{summary}");
        assert!(summary.contains("makespan:"), "{summary}");
    }

    #[test]
    fn serve_service_answers_queries_with_typed_errors() {
        use debruijn_net::metrics::ScrapeServer;
        let registry = Arc::new(MetricsRegistry::new());
        let service = QueryService::bind(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::new(2)
            },
            Arc::clone(&registry),
        )
        .unwrap();
        let addr = service.local_addr();
        assert_eq!(
            ScrapeServer::get(addr, "/distance?x=0110&y=1011").unwrap(),
            "1\n"
        );
        assert_eq!(
            ScrapeServer::get(addr, "/distance?x=0110&y=1011&directed=1").unwrap(),
            "2\n"
        );
        let route = ScrapeServer::get(addr, "/route?x=010011&y=110100").unwrap();
        assert!(route.contains("distance: 2"), "{route}");
        assert!(route.contains("route:"), "{route}");
        // Malformed queries are 400 with a JSON error body; unknown
        // endpoints are 404 — ScrapeServer::get surfaces both as Err.
        assert!(ScrapeServer::get(addr, "/distance?x=0110").is_err());
        assert!(ScrapeServer::get(addr, "/distance?x=01&y=0110").is_err());
        assert!(ScrapeServer::get(addr, "/frobnicate").is_err());
        service.shutdown().unwrap();
        // Every query was counted by endpoint and status, and every
        // rejection by kind.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value(
                "dbr_service_requests_total",
                &[("endpoint", "distance"), ("status", "200")]
            ),
            Some(2)
        );
        assert_eq!(
            snap.counter_value(
                "dbr_service_requests_total",
                &[("endpoint", "distance"), ("status", "400")]
            ),
            Some(2)
        );
        assert_eq!(
            snap.counter_value(
                "dbr_service_requests_total",
                &[("endpoint", "route"), ("status", "200")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("dbr_service_errors_total", &[("kind", "missing-param")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("dbr_service_errors_total", &[("kind", "length-mismatch")]),
            Some(1)
        );
        assert_eq!(
            snap.counter_value("dbr_service_errors_total", &[("kind", "unknown-endpoint")]),
            Some(1)
        );
    }

    #[test]
    fn trace_prom_command_matches_live_metrics_out() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jsonl = dir.join(format!("dbr-prom-{pid}.jsonl"));
        let live = dir.join(format!("dbr-prom-live-{pid}.prom"));
        let (jsonl_s, live_s) = (jsonl.to_str().unwrap(), live.to_str().unwrap());
        let line =
            format!("simulate 2 4 --messages 60 --seed 8 --trace {jsonl_s} --metrics-out {live_s}");
        run(&parse_line(&line).unwrap()).unwrap();
        let offline =
            run(&parse_line(&format!("trace prom {jsonl_s} --threads 4")).unwrap()).unwrap();
        let live_text = std::fs::read_to_string(&live).unwrap();
        std::fs::remove_file(&jsonl).ok();
        std::fs::remove_file(&live).ok();
        // The offline fold reproduces every simulator family the live
        // file has (the live file additionally carries the process-wide
        // core-profile collector families).
        for line in live_text.lines().filter(|l| l.starts_with("dbr_sim_")) {
            assert!(offline.contains(line), "missing live line: {line}");
        }
        assert!(offline.contains("dbr_sim_injected_total 60"), "{offline}");
        assert!(!offline.contains("dbr_core_"), "{offline}");
    }

    #[test]
    fn rejects_unknown_subcommand_and_engine() {
        assert!(parse_line("frobnicate 1 2").is_err());
        assert!(parse_line("route 2 01 10 --engine quantum").is_err());
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(parse_line("route 2 0110").is_err());
        assert!(parse_line("census 2").is_err());
    }

    #[test]
    fn rejects_undeclared_flags() {
        let err = parse_line("simulate 2 6 --metricss").unwrap_err();
        assert!(err.contains("unexpected flag --metricss"), "{err}");
        assert!(parse_line("route 2 01 10 --directd").is_err());
        assert!(parse_line("average 2 6 --sample 10").is_err());
        // Declared flags still pass.
        assert!(parse_line("simulate 2 6 --metrics --trace t.jsonl").is_ok());
    }

    #[test]
    fn route_command_emits_optimal_route() {
        let cmd = parse_line("route 2 010011 110100").unwrap();
        let out = run(&cmd).unwrap();
        // Two right shifts: 010011 -> 101001 -> 110100.
        assert!(out.contains("distance: 2"), "{out}");
        assert!(out.contains("route:"), "{out}");
        let directed = run(&parse_line("route 2 010011 110100 --directed").unwrap()).unwrap();
        assert!(directed.contains("distance: 4"), "{directed}");
    }

    #[test]
    fn distance_commands_agree_with_library() {
        let out = run(&parse_line("distance 2 0110 1011").unwrap()).unwrap();
        assert_eq!(out.trim(), "1");
        let out = run(&parse_line("distance 2 0110 1011 --directed").unwrap()).unwrap();
        assert_eq!(out.trim(), "2");
    }

    #[test]
    fn sequence_command_prints_valid_sequence() {
        let out = run(&parse_line("sequence 2 3").unwrap()).unwrap();
        let digits: Vec<u8> = out.trim().bytes().map(|b| b - b'0').collect();
        assert!(euler::is_de_bruijn_sequence(2, 3, &digits), "{out}");
        let out2 = run(&parse_line("sequence 2 3 --prefer-largest").unwrap()).unwrap();
        assert_eq!(out2.trim(), "00011101");
    }

    #[test]
    fn census_command_reports_structure() {
        let out = run(&parse_line("census 2 3").unwrap()).unwrap();
        assert!(out.contains("8 vertices"), "{out}");
        assert!(out.contains("diameter 3"), "{out}");
    }

    #[test]
    fn average_command_exact_matches_analysis() {
        let out = run(&parse_line("average 2 2 --directed").unwrap()).unwrap();
        assert!(out.starts_with("1.125000"), "{out}");
        assert!(out.contains("1.250000"), "Eq.5 line: {out}");
    }

    #[test]
    fn simulate_command_delivers_everything() {
        let out = run(&parse_line("simulate 2 5 --messages 200 --router alg4 --seed 9").unwrap())
            .unwrap();
        assert!(out.contains("delivered:    200/200"), "{out}");
        // Without --metrics, no observability sections appear.
        assert!(!out.contains("== metrics =="), "{out}");
    }

    #[test]
    fn simulate_metrics_flag_prints_histograms_and_counters() {
        let cmd =
            parse_line("simulate 2 5 --messages 300 --router alg4 --policy least-loaded --metrics")
                .unwrap();
        assert!(matches!(
            cmd,
            Command::Simulate {
                metrics: true,
                trace: None,
                ..
            }
        ));
        let out = run(&cmd).unwrap();
        assert!(out.contains("== metrics =="), "{out}");
        assert!(out.contains("hops per delivered message"), "{out}");
        assert!(out.contains("queue depth"), "{out}");
        assert!(out.contains("wildcard resolutions:"), "{out}");
        assert!(out.contains("by policy least-loaded:"), "{out}");
        assert!(out.contains("== core profile (this run) =="), "{out}");
        assert!(out.contains("distance engine solves:"), "{out}");
        // Optimal routing on a fault-free network: zero stretch.
        assert!(
            out.contains("stretch over shortest D(X,Y) (mean 0.0000)"),
            "{out}"
        );
    }

    #[test]
    fn simulate_trace_flag_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join(format!("dbr-trace-{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap();
        let line = format!("simulate 2 4 --messages 50 --router alg4 --trace {path_str}");
        let out = run(&parse_line(&line).unwrap()).unwrap();
        assert!(out.contains("trace written to"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut injects = 0;
        let mut delivers = 0;
        for l in text.lines() {
            match debruijn_net::record::parse_event(2, l).unwrap() {
                debruijn_net::NetEvent::Inject { .. } => injects += 1,
                debruijn_net::NetEvent::Deliver { .. } => delivers += 1,
                _ => {}
            }
        }
        assert_eq!(injects, 50, "{text}");
        assert_eq!(delivers, 50);
    }

    #[test]
    fn parses_trace_subcommands() {
        assert_eq!(
            parse_line("trace summary run.jsonl").unwrap(),
            Command::Trace {
                action: TraceAction::Summary {
                    file: "run.jsonl".into(),
                    radix: None,
                }
            }
        );
        assert_eq!(
            parse_line("trace links run.jsonl --top 3 --radix 12").unwrap(),
            Command::Trace {
                action: TraceAction::Links {
                    file: "run.jsonl".into(),
                    radix: Some(12),
                    top: 3,
                }
            }
        );
        assert!(matches!(
            parse_line("trace hist latency run.jsonl").unwrap(),
            Command::Trace {
                action: TraceAction::Hist {
                    metric: TraceMetric::Latency,
                    ..
                }
            }
        ));
        assert!(matches!(
            parse_line("trace diff a.jsonl b.jsonl").unwrap(),
            Command::Trace {
                action: TraceAction::Diff { .. }
            }
        ));
        assert!(matches!(
            parse_line("trace export run.jsonl run.json").unwrap(),
            Command::Trace {
                action: TraceAction::Export { .. }
            }
        ));
    }

    #[test]
    fn trace_errors_fail_loudly_with_usage() {
        let err = parse_line("trace frobnicate run.jsonl").unwrap_err();
        assert!(err.contains("unknown trace action 'frobnicate'"), "{err}");
        assert!(err.contains("dbr trace summary"), "{err}");
        let err = parse_line("trace").unwrap_err();
        assert!(err.contains("missing trace action"), "{err}");
        // Misspelled and misplaced flags are rejected, not ignored.
        let err = parse_line("trace links run.jsonl --topp 3").unwrap_err();
        assert!(err.contains("unexpected flag --topp"), "{err}");
        assert!(parse_line("trace summary run.jsonl --top 3").is_err());
        let err = parse_line("trace hist hopss run.jsonl").unwrap_err();
        assert!(err.contains("unknown metric 'hopss'"), "{err}");
        // Wrong arity names the expected grammar.
        let err = parse_line("trace diff only-one.jsonl").unwrap_err();
        assert!(err.contains("trace diff <A> <B>"), "{err}");
        assert!(parse_line("trace summary run.jsonl --radix x").is_err());
    }

    #[test]
    fn simulate_parses_progress_and_chrome_trace() {
        let cmd = parse_line("simulate 2 6 --progress 25 --chrome-trace t.json").unwrap();
        assert!(matches!(
            cmd,
            Command::Simulate {
                progress: Some(25),
                ..
            }
        ));
        assert!(parse_line("simulate 2 6 --progress 0").is_err());
        assert!(parse_line("simulate 2 6 --progress x").is_err());
        assert!(parse_line("simulate 2 6 --chrome-tracee t.json").is_err());
    }

    #[test]
    fn help_documents_trace_family() {
        let out = run(&Command::Help).unwrap();
        for needle in [
            "dbr trace summary",
            "dbr trace diff",
            "--chrome-trace",
            "--progress",
        ] {
            assert!(out.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn trace_summary_reproduces_live_metrics() {
        // End-to-end: simulate with --trace + --metrics, then check the
        // offline reconstruction repeats the live histogram block.
        let path = std::env::temp_dir().join(format!("dbr-cli-trace-{}.jsonl", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let line =
            format!("simulate 2 5 --messages 150 --router alg4 --metrics --trace {path_str}");
        let live = run(&parse_line(&line).unwrap()).unwrap();
        let offline = run(&parse_line(&format!("trace summary {path_str}")).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        // The whole metrics block matches byte for byte.
        let live_metrics = live.split("== metrics ==").nth(1).unwrap();
        let offline_metrics = offline.split("== metrics ==").nth(1).unwrap();
        let live_block = live_metrics.split("== core profile").next().unwrap();
        assert_eq!(live_block.trim_end(), offline_metrics.trim_end());
        // And so do the headline report lines.
        for needle in [
            "delivered:    150/150",
            "dropped:      0",
            "mean hops:",
            "mean latency:",
        ] {
            let line = live.lines().find(|l| l.starts_with(needle)).unwrap();
            assert!(offline.contains(line), "{offline}\nmissing {line}");
        }
    }

    #[test]
    fn chrome_trace_flag_writes_perfetto_json() {
        let dir = std::env::temp_dir();
        let chrome = dir.join(format!("dbr-cli-chrome-{}.json", std::process::id()));
        let chrome_str = chrome.to_str().unwrap().to_string();
        let line = format!("simulate 2 4 --messages 40 --chrome-trace {chrome_str}");
        let out = run(&parse_line(&line).unwrap()).unwrap();
        assert!(out.contains("chrome trace written to"), "{out}");
        let text = std::fs::read_to_string(&chrome).unwrap();
        std::fs::remove_file(&chrome).ok();
        assert!(text.starts_with("[\n{"), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert!(text.contains("\"thread_name\""), "{text}");
        assert!(text.contains("\"cat\":\"message\""), "{text}");
    }

    #[test]
    fn trace_export_matches_live_chrome_trace() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let jsonl = dir.join(format!("dbr-cli-exp-{pid}.jsonl"));
        let live = dir.join(format!("dbr-cli-exp-live-{pid}.json"));
        let offline = dir.join(format!("dbr-cli-exp-off-{pid}.json"));
        let (jsonl_s, live_s, offline_s) = (
            jsonl.to_str().unwrap(),
            live.to_str().unwrap(),
            offline.to_str().unwrap(),
        );
        let line = format!(
            "simulate 2 4 --messages 30 --seed 5 --trace {jsonl_s} --chrome-trace {live_s}"
        );
        run(&parse_line(&line).unwrap()).unwrap();
        let out =
            run(&parse_line(&format!("trace export {jsonl_s} {offline_s}")).unwrap()).unwrap();
        assert!(out.contains("exported"), "{out}");
        let live_text = std::fs::read_to_string(&live).unwrap();
        let offline_text = std::fs::read_to_string(&offline).unwrap();
        for p in [&jsonl, &live, &offline] {
            std::fs::remove_file(p).ok();
        }
        // Live and offline exports of the same run are identical.
        assert_eq!(live_text, offline_text);
    }

    #[test]
    fn run_reports_bad_words() {
        let err = run(&parse_line("distance 2 01 0110").unwrap()).unwrap_err();
        assert!(err.contains("same length"), "{err}");
        let err = run(&parse_line("distance 2 0120 0000").unwrap()).unwrap_err();
        assert!(err.contains("bad X"), "{err}");
    }

    #[test]
    fn help_contains_usage() {
        let out = run(&Command::Help).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn multipath_command_lists_distinct_shortest_routes() {
        let out = run(&parse_line("multipath 2 0000 1111").unwrap()).unwrap();
        assert!(out.contains("shortest route(s) of length 4"), "{out}");
        // Trivial route plus at least one right-shift variant.
        assert!(out.lines().count() >= 3, "{out}");
    }

    #[test]
    fn gdb_command_routes_in_non_power_graphs() {
        let out = run(&parse_line("gdb 2 12 3 7").unwrap()).unwrap();
        assert!(out.contains("GDB(2,12)"), "{out}");
        assert!(out.contains("distance 3 -> 7"), "{out}");
        let err = run(&parse_line("gdb 2 12 12 0").unwrap()).unwrap_err();
        assert!(err.contains("below N"), "{err}");
    }

    #[test]
    fn disjoint_command_reports_menger_witnesses() {
        let out = run(&parse_line("disjoint 2 000 111").unwrap()).unwrap();
        assert!(out.contains("vertex-disjoint"), "{out}");
        assert!(out.contains("000 -> "), "{out}");
        let err = run(&parse_line("disjoint 2 000 000").unwrap()).unwrap_err();
        assert!(err.contains("differ"), "{err}");
    }
}
