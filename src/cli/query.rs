//! The route/distance query commands: `dbr route` and `dbr distance`
//! for one pair or a `--batch` file of pairs (through the
//! destination-major kernel), and `dbr serve` for a standing service.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;

use debruijn_core::distance::undirected::Engine;
use debruijn_core::{distance, routing, Word};
use debruijn_net::metrics::{AnomalyTriggers, FlightRecorder, MetricsRegistry};
use debruijn_net::service::{Dispatcher, QueryService, ServiceConfig};

use super::args::Args;
use super::{parse_pair, parse_radix, USAGE};

/// `dbr route|distance <d> <X> <Y> [--directed] [--engine E]` or
/// `dbr route|distance <d> --batch FILE [--threads N] …`
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Digit radix.
    pub d: u8,
    /// The single source/destination pair (`None` in batch mode).
    pub pair: Option<(String, String)>,
    /// Uni-directional network (Algorithm 1, Property 1) instead of the
    /// bidirectional one (Algorithms 2/4, Theorem 2).
    pub directed: bool,
    /// Engine for the undirected distance (default: auto crossover).
    pub engine: Engine,
    /// Worker threads for batch mode (1 = inline, 0 = all cores).
    pub threads: usize,
    /// Read whitespace-separated "X Y" pairs from this file (`-` =
    /// stdin), one answer per line.
    pub batch: Option<String>,
}

/// Lines per work unit in `route`/`distance` batch mode. The chunk
/// geometry — not the worker count — partitions the input, so the
/// output is byte-identical for every `--threads` value; within a chunk
/// the destination-major kernel amortizes per-destination work.
const BATCH_CHUNK: usize = 512;

impl Query {
    /// Parses the arguments of `dbr <cmd>`, `cmd` being `route` or
    /// `distance`.
    pub(super) fn parse(cmd: &str, rest: &[&str]) -> Result<Self, String> {
        let args = Args::split(rest, USAGE, cmd)?;
        let batch = args.string("--batch");
        let (d, pair) = if batch.is_some() {
            let [d] = args.positional(&format!("{cmd} <d> --batch FILE"))?;
            (d, None)
        } else {
            let [d, x, y] = args.positional(&format!("{cmd} <d> <X> <Y>"))?;
            (d, Some((x.to_string(), y.to_string())))
        };
        Ok(Self {
            d: parse_radix(d)?,
            pair,
            directed: args.switch("--directed"),
            engine: parse_engine(args.value("--engine"))?,
            threads: args.num("--threads")?.unwrap_or(1),
            batch,
        })
    }

    /// `dbr route`: the route and its length, or one `<len> <route>`
    /// line per batch pair.
    pub fn route(&self) -> Result<String, String> {
        match (&self.pair, &self.batch) {
            (Some((x, y)), _) => {
                let (x, y) = parse_pair(self.d, x, y)?;
                let route = if self.directed {
                    routing::algorithm1(&x, &y)
                } else {
                    routing::route_with_engine(&x, &y, self.engine)
                };
                Ok(format!("distance: {}\nroute:    {route}\n", route.len()))
            }
            // Fixed-size chunks through the destination-major kernel:
            // per-destination preprocessing amortizes within each chunk,
            // one scratch + route buffer per chunk instead of per line,
            // and the chunk geometry (not the thread count) fixes the
            // output, so `--threads` never changes a byte.
            (None, Some(file)) => run_batch(self.d, file, self.threads, |pairs, text| {
                let mut scratch = debruijn_core::BatchScratch::new();
                let mut routes = Vec::new();
                debruijn_core::route_batch_into(
                    pairs,
                    self.directed,
                    self.engine,
                    &mut scratch,
                    &mut routes,
                );
                for r in &routes {
                    writeln!(text, "{} {r}", r.len()).expect("write to string");
                }
            }),
            (None, None) => unreachable!("parser guarantees pair or batch"),
        }
    }

    /// `dbr distance`: the distance, or one per batch pair.
    pub fn distance(&self) -> Result<String, String> {
        match (&self.pair, &self.batch) {
            (Some((x, y)), _) => {
                let (x, y) = parse_pair(self.d, x, y)?;
                let dist = if self.directed {
                    distance::directed::distance(&x, &y)
                } else {
                    distance::undirected::distance_with(self.engine, &x, &y)
                };
                Ok(format!("{dist}\n"))
            }
            (None, Some(file)) => run_batch(self.d, file, self.threads, |pairs, text| {
                let mut scratch = debruijn_core::BatchScratch::new();
                let mut dists = Vec::new();
                debruijn_core::distance_batch_into(
                    pairs,
                    self.directed,
                    self.engine,
                    &mut scratch,
                    &mut dists,
                );
                for dist in &dists {
                    writeln!(text, "{dist}").expect("write to string");
                }
            }),
            (None, None) => unreachable!("parser guarantees pair or batch"),
        }
    }
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

/// Answers a batch file (or stdin for `-`) of "X Y" pairs, whitespace
/// separated, one per line, in fixed chunks of [`BATCH_CHUNK`] pairs.
///
/// Only the line split ([`batch_lines`]) is serial, so every chunk but
/// the last holds `BATCH_CHUNK` pairs. Each chunk's lines are parsed
/// ([`batch_pairs`]) inside its `map_chunks` worker, then `answer`
/// appends the chunk's output. A bad line fails the batch with the error
/// of the earliest one in the file, for any thread count.
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
    let lines = batch_lines(&text);
    let chunks = debruijn_parallel::map_chunks(threads, lines.len(), BATCH_CHUNK, |range| {
        let pairs = batch_pairs(d, &lines[range])?;
        let mut out = String::new();
        answer(&pairs, &mut out);
        Ok::<_, String>(out)
    });
    let mut out = String::new();
    for chunk in chunks {
        out.push_str(&chunk?);
    }
    Ok(out)
}

/// The pair lines of a `--batch` text: each line that is neither blank
/// nor a `#` comment, trimmed, with its 0-based line number.
pub fn batch_lines(text: &str) -> Vec<(usize, &str)> {
    text.lines()
        .map(str::trim)
        .enumerate()
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// Reads [`batch_lines`] as `(X, Y)` pairs of radix `d`.
///
/// # Errors
///
/// `batch line N: …` for the first line that is not two words of radix
/// `d` and equal length.
pub fn batch_pairs(d: u8, lines: &[(usize, &str)]) -> Result<Vec<(Word, Word)>, String> {
    let mut pairs = Vec::with_capacity(lines.len());
    for &(lineno, line) in lines {
        let mut it = line.split_whitespace();
        let (Some(x), Some(y), None) = (it.next(), it.next(), it.next()) else {
            return Err(format!("batch line {}: expected 'X Y'", lineno + 1));
        };
        pairs.push(parse_pair(d, x, y).map_err(|e| format!("batch line {}: {e}", lineno + 1))?);
    }
    Ok(pairs)
}

/// `dbr serve <d> [--listen ADDR] [--threads N] [--cache-capacity N]
/// [--max-inflight N] [--flight-dump FILE]`: a standing route/distance
/// query service with `/metrics`.
#[derive(Debug, Clone, PartialEq)]
pub struct Serve {
    /// Digit radix served.
    pub d: u8,
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub listen: String,
    /// Route-cache shards (0 = one per core).
    pub threads: usize,
    /// Total route-cache capacity split across shards (0 disables).
    pub cache_capacity: usize,
    /// Per-shard bound on unanswered queries; overflow is shed with 503.
    pub max_inflight: usize,
    /// Arm the queue-depth flight recorder, dumping the pre-overload
    /// window to this JSONL file.
    pub flight_dump: Option<String>,
}

impl Serve {
    pub(super) fn parse(rest: &[&str]) -> Result<Self, String> {
        let args = Args::split(rest, USAGE, "serve")?;
        let [d] = args.positional("serve <d> [--listen ADDR] [--threads N]")?;
        let max_inflight = args.num("--max-inflight")?.unwrap_or(256);
        if max_inflight == 0 {
            return Err("--max-inflight must be at least 1".into());
        }
        Ok(Self {
            d: parse_radix(d)?,
            listen: args.value("--listen").unwrap_or("127.0.0.1:0").to_string(),
            threads: args.num("--threads")?.unwrap_or(0),
            cache_capacity: args.num("--cache-capacity")?.unwrap_or(4096),
            max_inflight,
            flight_dump: args.string("--flight-dump"),
        })
    }

    /// Serves until `GET /quitquitquit`, then returns the end-of-run
    /// metrics dump.
    pub fn run(&self) -> Result<String, String> {
        let &Self {
            d,
            cache_capacity,
            max_inflight,
            ..
        } = self;
        let registry = Arc::new(MetricsRegistry::new());
        let config = ServiceConfig {
            workers: self.threads,
            cache_capacity,
            max_inflight,
            ..ServiceConfig::new(d)
        };
        let mut dispatcher = Dispatcher::new(config, Arc::clone(&registry));
        if let Some(path) = &self.flight_dump {
            // Trip exactly when a shard first fills (the moment
            // shedding starts) and freeze the pre-overload admission
            // window as `dbr trace`-readable JSONL.
            let triggers = AnomalyTriggers {
                drop_burst: None,
                no_route_burst: None,
                queue_depth_limit: Some(max_inflight),
                queue_wait_limit: None,
            };
            dispatcher = dispatcher
                .with_flight_recorder(FlightRecorder::new(4096, triggers).with_dump_path(path));
        }
        let listen = &self.listen;
        let service = QueryService::bind_dispatcher(listen, dispatcher, Arc::clone(&registry))
            .map_err(|e| format!("cannot listen on '{listen}': {e}"))?;
        eprintln!("listening on http://{}/metrics", service.local_addr());
        println!(
            "serving radix-{d} route/distance queries on http://{} ({} shards, \
             cache {cache_capacity}, max-inflight {max_inflight})",
            service.local_addr(),
            service.dispatcher().workers(),
        );
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        let anomaly = service
            .block()
            .map_err(|e| format!("writing flight dump: {e}"))?;
        if let Some(anomaly) = anomaly {
            eprintln!("flight recorder: {anomaly}");
        }
        // End-of-run metrics dump: the final state of every
        // dbr_service_* family, scrape-identical text.
        Ok(registry.snapshot().render())
    }
}
