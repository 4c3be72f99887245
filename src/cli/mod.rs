//! Implementation of the `dbr` command-line tool.
//!
//! Kept in the library (rather than the binary) so the argument parsing
//! and command logic are unit-testable; the binary `src/bin/dbr.rs` is a
//! thin wrapper. Each subcommand is a plain struct with a `parse` from
//! its arguments and a `run` that returns its stdout text, in the module
//! of its family: `query` (`route`, `distance`, `serve`), `graph`
//! (`sequence`, `census`, `average`, `multipath`, `gdb`, `disjoint`),
//! `sim` (`simulate`, `profile`), `localize` and `trace`. [`Command`] is
//! their sum; [`parse`] and [`run`] only dispatch.
//!
//! No argument-parsing dependency: a subcommand's flags, and whether
//! each takes a value, are read from its synopsis in [`USAGE`] (or
//! [`TRACE_USAGE`]), so the help text is the one declaration of the
//! grammar. See ADR 0009.

mod args;
mod graph;
mod localize;
mod query;
mod sim;
mod trace;

use debruijn_core::{DeBruijn, Word};

pub use graph::{Average, Census, Endpoints, Gdb, Sequence};
pub use localize::{replay, Localize};
pub use query::{batch_lines, batch_pairs, Query, Serve};
pub use sim::{Profile, SimArgs, Simulate, WorkloadKind};
pub use trace::{TraceAction, TRACE_USAGE};

/// A parsed `dbr` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `dbr route <d> <X> <Y>` or `dbr route <d> --batch FILE`
    Route(Query),
    /// `dbr distance <d> <X> <Y>` or `dbr distance <d> --batch FILE`
    Distance(Query),
    /// `dbr sequence <d> <n> [--prefer-largest]`
    Sequence(Sequence),
    /// `dbr census <d> <k>`
    Census(Census),
    /// `dbr average <d> <k> [--directed] [--samples N]`
    Average(Average),
    /// `dbr simulate <d> <k> …`
    Simulate(Simulate),
    /// `dbr profile <d> <k> …`
    Profile(Profile),
    /// `dbr serve <d> …`
    Serve(Serve),
    /// `dbr localize <d> <k> <trace.jsonl> …`
    Localize(Localize),
    /// `dbr trace <summary|links|hist|diff|prom|export> …`
    Trace(TraceAction),
    /// `dbr multipath <d> <X> <Y>`
    Multipath(Endpoints),
    /// `dbr gdb <d> <N> <i> <j>`
    Gdb(Gdb),
    /// `dbr disjoint <d> <X> <Y>`
    Disjoint(Endpoints),
    /// `dbr help`
    Help,
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
                       [--threads N] [--shards S]
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
                [--max-inflight N] [--flight-dump FILE]
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
byte-identical to --threads 1.
--shards S splits the simulated nodes into S partitions (default 1)
stepped in parallel by the --threads workers; the report, trace, and
metrics are identical for every shards/threads combination (see
docs/SCALING.md). --next-hop picks the forwarding tier: auto (default)
runs alg1/alg2/alg4 under the zero policy on the dense precomputed
next-hop table when it fits the memory cap and on the O(1)-memory
compressed shift-prediction cursor beyond it (so DG(2,20)'s million
nodes simulate without a table), and every other router or policy on
the fallback tier. dense/compressed force a next-hop tier (an error
for those other configurations) and produce byte-identical reports;
fallback forces §3 source routing: each message carries the route its
source computed, and each hop pops one step and resolves any wildcard
digit with --policy.
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
resolutions per policy and digit, drops by reason); --trace FILE
streams every event as JSON lines that every `dbr trace` command can
analyse offline (they infer the radix from the file; pass --radix D to
override); --progress N prints an in-flight snapshot to stderr every N
ticks; --chrome-trace FILE writes a timeline for
https://ui.perfetto.dev.

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
HTTP/1.1; each connection's thread answers its queries from the
destination's route-cache shard: --threads N sets the shard
count (0 = one per core), --cache-capacity the total cached routes,
--max-inflight the per-shard bound on unanswered queries (overflow is
shed with 503 + Retry-After), and --flight-dump FILE arms a
queue-depth flight recorder that dumps the pre-overload window.
Malformed queries get 400 with a JSON error body; unknown endpoints
404. dbr_service_* metrics are exported at /metrics and printed as an
end-of-run dump after GET /quitquitquit. See docs/OBSERVABILITY.md.
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
    let rest = rest.as_slice();
    Ok(match sub {
        "help" | "--help" | "-h" => Command::Help,
        "route" => Command::Route(Query::parse(sub, rest)?),
        "distance" => Command::Distance(Query::parse(sub, rest)?),
        "sequence" => Command::Sequence(Sequence::parse(rest)?),
        "census" => Command::Census(Census::parse(rest)?),
        "average" => Command::Average(Average::parse(rest)?),
        "simulate" => Command::Simulate(Simulate::parse(rest)?),
        "profile" => Command::Profile(Profile::parse(rest)?),
        "serve" => Command::Serve(Serve::parse(rest)?),
        "localize" => Command::Localize(Localize::parse(rest)?),
        "trace" => Command::Trace(TraceAction::parse(rest)?),
        "multipath" => Command::Multipath(Endpoints::parse(sub, rest)?),
        "gdb" => Command::Gdb(Gdb::parse(rest)?),
        "disjoint" => Command::Disjoint(Endpoints::parse(sub, rest)?),
        other => return Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    })
}

/// Executes a command, returning its stdout text.
///
/// # Errors
///
/// Returns a human-readable message on invalid inputs (bad digits,
/// mismatched lengths, spaces too large to enumerate, …).
pub fn run(cmd: &Command) -> Result<String, String> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Route(query) => query.route(),
        Command::Distance(query) => query.distance(),
        Command::Sequence(sequence) => sequence.run(),
        Command::Census(census) => census.run(),
        Command::Average(average) => average.run(),
        Command::Simulate(simulate) => simulate.run(),
        Command::Profile(profile) => profile.run(),
        Command::Serve(serve) => serve.run(),
        Command::Localize(localize) => localize.run(),
        Command::Trace(action) => action.run(),
        Command::Multipath(endpoints) => endpoints.multipath(),
        Command::Gdb(gdb) => gdb.run(),
        Command::Disjoint(endpoints) => endpoints.disjoint(),
    }
}

/// `DG(d,k)`, if it is small enough to enumerate.
fn space_of(d: u8, k: usize) -> Result<DeBruijn, String> {
    let space = DeBruijn::new(d, k).map_err(|e| e.to_string())?;
    if space.order_usize().is_none() {
        return Err(format!("DG({d},{k}) is too large to enumerate"));
    }
    Ok(space)
}

/// Reads a source/destination pair of radix `d` and equal length.
fn parse_pair(d: u8, x: &str, y: &str) -> Result<(Word, Word), String> {
    let x = Word::parse(d, x).map_err(|e| format!("bad X: {e}"))?;
    let y = Word::parse(d, y).map_err(|e| format!("bad Y: {e}"))?;
    if !x.same_space(&y) {
        return Err("X and Y must have the same length".into());
    }
    Ok((x, y))
}

fn parse_radix(s: &str) -> Result<u8, String> {
    args::number(s, "radix")
}

#[cfg(test)]
mod tests;
