//! `dbr simulate` and `dbr profile`: one simulation set-up, two ways to
//! observe it.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write as _};
use std::sync::Arc;

use debruijn_core::{DeBruijn, Word};
use debruijn_net::metrics::{
    AnomalyTriggers, FlightRecorder, MetricsRegistry, RegistryRecorder, ScrapeServer,
};
use debruijn_net::record::{FanoutRecorder, InMemoryRecorder, JsonlRecorder};
use debruijn_net::telemetry::{ChromeTraceRecorder, SnapshotRecorder};
use debruijn_net::{
    workload, Injection, NetEvent, NextHopMode, Placement, ProfileConfig, Recorder, RouterKind,
    ShardedSimulation, SimConfig, SimReport, WildcardPolicy,
};

use super::args::{number, Args};
use super::localize::{build_monitors, parse_placement, write_monitor_report};
use super::{parse_radix, space_of, USAGE};

/// The settings `dbr simulate` and `dbr profile` share: the network, its
/// traffic, its faults and the engine's threads.
#[derive(Debug, Clone, PartialEq)]
pub struct SimArgs {
    /// Digit radix.
    pub d: u8,
    /// Word length.
    pub k: usize,
    /// Number of messages.
    pub messages: usize,
    /// Routing strategy.
    pub router: RouterKind,
    /// Wildcard policy.
    pub policy: WildcardPolicy,
    /// RNG seed (also feeds `profile`'s span sampler).
    pub seed: u64,
    /// Worker threads stepping the shards (and computing source routes).
    pub threads: usize,
    /// Forwarding tier (`--next-hop`).
    pub next_hop: NextHopMode,
    /// Traffic pattern (`--workload`).
    pub workload: WorkloadKind,
    /// Comma-separated faulty node addresses.
    pub faults: Option<String>,
    /// Per-message hop budget (0 disables; exceeding it drops with
    /// reason `ttl`).
    pub ttl: usize,
}

/// `dbr simulate <d> <k> [--messages N] [--router R] …`: run the
/// network and print its report, with any of the observers armed.
#[derive(Debug, Clone, PartialEq)]
pub struct Simulate {
    /// The network, traffic and faults.
    pub sim: SimArgs,
    /// Node partitions the engine steps in parallel.
    pub shards: usize,
    /// Print per-hop/queue histograms and wildcard/profile counters.
    pub metrics: bool,
    /// Write every simulation event to this file as JSON lines.
    pub trace: Option<String>,
    /// Print an in-flight snapshot to stderr every N simulated ticks.
    pub progress: Option<u64>,
    /// Write a Chrome trace-event (Perfetto) file of the run.
    pub chrome_trace: Option<String>,
    /// Serve `/metrics` and `/healthz` over HTTP at this address during
    /// the run and until killed.
    pub listen: Option<String>,
    /// Write Prometheus text snapshots to this file periodically and
    /// after the run.
    pub metrics_out: Option<String>,
    /// Arm a flight recorder that dumps the pre-anomaly event window to
    /// this JSONL file.
    pub flight_recorder: Option<String>,
    /// Flight-recorder ring capacity (events kept before an anomaly).
    pub flight_capacity: usize,
    /// Fault-localizing monitor placement (`--monitors`; `None`, the
    /// default, leaves the output untouched).
    pub monitors: Option<Placement>,
    /// Dump the monitors' anomaly-evidence window to this JSONL file
    /// after the decode.
    pub monitor_dump: Option<String>,
}

/// `dbr profile <d> <k> [--shards S] [--sample N] [--top K] …`: run the
/// sharded engine with the profiler armed and print the phase-time
/// breakdown, per-shard imbalance, and top-k critical paths.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The network, traffic and faults.
    pub sim: SimArgs,
    /// Node partitions.
    pub shards: usize,
    /// Causal-tracing rate: tag ~1/N messages (0 disables spans).
    pub sample: u32,
    /// How many critical paths to print.
    pub top: usize,
    /// Write the profile as JSON to this file.
    pub profile_out: Option<String>,
    /// Write a Chrome trace of engine phase slices to this file.
    pub chrome_out: Option<String>,
    /// Write the simulation event trace (JSONL) to this file.
    pub trace: Option<String>,
    /// Print the simulation metrics block too.
    pub metrics: bool,
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

impl SimArgs {
    /// Splits the arguments of `dbr <cmd> <d> <k> …` and reads the
    /// shared settings.
    fn parse<'a>(cmd: &str, rest: &[&'a str]) -> Result<(Self, Args<'a>), String> {
        let args = Args::split(rest, USAGE, cmd)?;
        let [d, k] = args.positional(&format!("{cmd} <d> <k>"))?;
        let sim = Self {
            d: parse_radix(d)?,
            k: number(k, "k")?,
            messages: args.num("--messages")?.unwrap_or(1000),
            router: parse_router(args.value("--router"))?,
            policy: parse_policy(args.value("--policy"))?,
            seed: args.num("--seed")?.unwrap_or(0xDB),
            threads: args.num("--threads")?.unwrap_or(1),
            next_hop: parse_next_hop(args.value("--next-hop"))?,
            workload: args
                .parsed("--workload", WorkloadKind::parse)?
                .unwrap_or_default(),
            faults: args.string("--faults"),
            ttl: args.num("--ttl")?.unwrap_or(0),
        };
        Ok((sim, args))
    }

    /// Builds the network, its engine over `shards` partitions, and its
    /// traffic.
    fn build(
        &self,
        shards: usize,
    ) -> Result<(DeBruijn, ShardedSimulation, Vec<Injection>), String> {
        let space = space_of(self.d, self.k)?;
        let config = SimConfig {
            router: self.router,
            policy: self.policy,
            seed: self.seed,
            threads: self.threads,
            ttl: self.ttl,
            ..SimConfig::default()
        };
        let faults = self
            .faults
            .as_deref()
            .map(|list| {
                list.split(',')
                    .map(|w| {
                        Word::parse(self.d, w.trim()).map_err(|e| format!("bad fault '{w}': {e}"))
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .transpose()?
            .unwrap_or_default();
        let engine = ShardedSimulation::new(space, config, shards)
            .and_then(|sim| sim.with_next_hop(self.next_hop))
            .and_then(|sim| sim.with_faults(faults))
            .map_err(|e| e.to_string())?;
        let (n, seed) = (self.messages, self.seed);
        let traffic = match self.workload {
            WorkloadKind::Uniform => workload::uniform_random(space, n, seed),
            WorkloadKind::Burst => workload::uniform_burst(space, n, seed),
            WorkloadKind::Zipf(exp) => workload::zipf(space, n, exp, seed),
        };
        Ok((space, engine, traffic))
    }
}

impl Simulate {
    pub(super) fn parse(rest: &[&str]) -> Result<Self, String> {
        let (sim, args) = SimArgs::parse("simulate", rest)?;
        Ok(Self {
            sim,
            shards: args.positive("--shards")?.unwrap_or(1),
            metrics: args.switch("--metrics"),
            trace: args.string("--trace"),
            progress: args.parsed("--progress", |v| match v.parse::<u64>() {
                Ok(n) if n > 0 => Ok(n),
                _ => Err(format!("bad progress interval '{v}' (need ticks >= 1)")),
            })?,
            chrome_trace: args.string("--chrome-trace"),
            listen: args.string("--listen"),
            metrics_out: args.string("--metrics-out"),
            flight_recorder: args.string("--flight-recorder"),
            flight_capacity: args.positive("--flight-capacity")?.unwrap_or(4096),
            monitors: args.parsed("--monitors", parse_placement)?.flatten(),
            monitor_dump: args.string("--monitor-dump"),
        })
    }

    /// Runs the simulation and returns its report; with `--listen`, the
    /// report is printed and the scrape server then serves until the
    /// process is killed.
    pub fn run(&self) -> Result<String, String> {
        let (space, sim, traffic) = self.sim.build(self.shards)?;

        // One registry backs both exposure paths: the HTTP scrape
        // server (--listen) and the periodic file snapshot
        // (--metrics-out).
        let registry = (self.listen.is_some() || self.metrics_out.is_some())
            .then(|| Arc::new(MetricsRegistry::new()));
        let mut registry_recorder = registry.as_ref().map(RegistryRecorder::new);
        let server = match (&self.listen, &registry) {
            (Some(addr), Some(registry)) => Some(
                ScrapeServer::bind(addr.as_str(), Arc::clone(registry))
                    .map_err(|e| format!("cannot listen on '{addr}': {e}"))?,
            ),
            _ => None,
        };
        if let Some(server) = &server {
            // Announced on stderr (stdout carries the report), so
            // scripts binding port 0 can discover the address.
            eprintln!("listening on http://{}/metrics", server.local_addr());
        }
        let mut metrics_file = match (&self.metrics_out, &registry) {
            (Some(path), Some(registry)) => {
                Some(MetricsFileWriter::new(Arc::clone(registry), path))
            }
            _ => None,
        };
        let mut flight = self.flight_recorder.as_ref().map(|path| {
            FlightRecorder::new(self.flight_capacity, AnomalyTriggers::default())
                .with_dump_path(path)
        });
        let directed = matches!(
            self.sim.router,
            RouterKind::Algorithm1 | RouterKind::Trivial
        );
        let mut monitor_set = self
            .monitors
            .map(|placement| build_monitors(space, directed, placement))
            .transpose()?;

        let mut memory = self.metrics.then(InMemoryRecorder::new);
        let mut jsonl = open_trace(self.trace.as_deref())?;
        let mut chrome = self
            .chrome_trace
            .as_deref()
            .map(|path| create(path, "chrome trace").map(ChromeTraceRecorder::new))
            .transpose()?;
        let mut snapshots = self
            .progress
            .map(|every| SnapshotRecorder::new(every, io::stderr()));
        let report = {
            let mut fan = FanoutRecorder::new();
            fan.push(&mut registry_recorder);
            fan.push(&mut memory);
            fan.push(&mut jsonl);
            fan.push(&mut chrome);
            fan.push(&mut snapshots);
            // After the registry recorder, so snapshots include the
            // tick that triggered them.
            fan.push(&mut metrics_file);
            fan.push(&mut flight);
            fan.push(&mut monitor_set);
            sim.run_recorded(&traffic, &mut fan)
        };
        if let Some(s) = snapshots {
            s.finish().map_err(|e| format!("writing snapshots: {e}"))?;
        }

        let mut out = String::new();
        write_report(&mut out, &report);
        if let Some(memory) = &memory {
            write!(out, "\n== metrics ==\n{memory}").expect("write");
        }
        if let (Some(j), Some(path)) = (jsonl, &self.trace) {
            finish_file(&mut out, j.finish(), "trace", path)?;
        }
        if let (Some(c), Some(path)) = (chrome, &self.chrome_trace) {
            finish_file(&mut out, c.finish(), "chrome trace", path)?;
        }
        if let (Some(f), Some(path)) = (flight, &self.flight_recorder) {
            let captures = f.capture_count();
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
            if let Some(path) = &self.monitor_dump {
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
        if let (Some(w), Some(path)) = (metrics_file, &self.metrics_out) {
            w.finish()?;
            writeln!(out, "metrics snapshot written to {path}").expect("write");
        }
        if let Some(server) = server {
            // Flush the report now: the scrape server keeps the
            // process alive until killed, and consumers should not
            // have to wait for the results.
            print!("{out}");
            out.clear();
            io::stdout().flush().map_err(|e| e.to_string())?;
            server.block();
        }
        Ok(out)
    }
}

impl Profile {
    pub(super) fn parse(rest: &[&str]) -> Result<Self, String> {
        let (sim, args) = SimArgs::parse("profile", rest)?;
        Ok(Self {
            sim,
            shards: args.positive("--shards")?.unwrap_or(4),
            sample: args
                .parsed("--sample", |v| {
                    v.parse().map_err(|_| format!("bad sample rate '{v}'"))
                })?
                .unwrap_or(64),
            top: args.num("--top")?.unwrap_or(5),
            profile_out: args.string("--profile-out"),
            chrome_out: args.string("--chrome-out"),
            trace: args.string("--trace"),
            metrics: args.switch("--metrics"),
        })
    }

    /// Runs the profiled simulation and returns its report.
    pub fn run(&self) -> Result<String, String> {
        let (_, sim, traffic) = self.sim.build(self.shards)?;
        let profile_cfg = ProfileConfig {
            sample_every: self.sample,
            // Lap slices are only recorded when someone will render
            // them — they cost memory per window.
            slices: self.chrome_out.is_some(),
        };
        let mut memory = self.metrics.then(InMemoryRecorder::new);
        let mut jsonl = open_trace(self.trace.as_deref())?;
        let (report, profile) = {
            let mut fan = FanoutRecorder::new();
            fan.push(&mut memory);
            fan.push(&mut jsonl);
            sim.run_profiled(&traffic, &mut fan, &profile_cfg)
        };
        // The same seven headline lines `dbr simulate` prints, so a
        // profiled run's report can be cmp'd against an unprofiled
        // one byte for byte.
        let mut out = String::new();
        write_report(&mut out, &report);
        if let Some(memory) = &memory {
            write!(out, "\n== metrics ==\n{memory}").expect("write");
            // The same phase data as dbr_engine_* registry
            // families, scrape-format, for machine consumption.
            let registry = MetricsRegistry::new();
            profile.export_to(&registry);
            writeln!(out, "\n== engine metrics ==").expect("write");
            out.push_str(&registry.snapshot().render());
        }
        writeln!(out).expect("write");
        out.push_str(&profile.render(self.top));
        if let Some(path) = &self.profile_out {
            std::fs::write(path, profile.to_json(self.top))
                .map_err(|e| format!("cannot write profile '{path}': {e}"))?;
            writeln!(out, "profile written to {path}").expect("write");
        }
        if let Some(path) = &self.chrome_out {
            std::fs::write(path, profile.chrome_trace())
                .map_err(|e| format!("cannot write engine chrome trace '{path}': {e}"))?;
            writeln!(out, "engine chrome trace written to {path}").expect("write");
        }
        if let (Some(j), Some(path)) = (jsonl, &self.trace) {
            finish_file(&mut out, j.finish(), "trace", path)?;
        }
        Ok(out)
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
    let name = value.unwrap_or("zero");
    WildcardPolicy::parse(name).ok_or_else(|| format!("unknown policy '{name}'"))
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

/// Creates an output file; `cannot create WHAT 'PATH'` on failure.
fn create(path: &str, what: &str) -> Result<BufWriter<File>, String> {
    File::create(path)
        .map(BufWriter::new)
        .map_err(|e| format!("cannot create {what} '{path}': {e}"))
}

/// The `--trace FILE` JSONL recorder, if asked for.
fn open_trace(path: Option<&str>) -> Result<Option<JsonlRecorder<BufWriter<File>>>, String> {
    path.map(|path| create(path, "trace file").map(JsonlRecorder::new))
        .transpose()
}

/// Flushes a finished output file and notes it in the report.
fn finish_file(
    out: &mut String,
    finished: io::Result<BufWriter<File>>,
    what: &str,
    path: &str,
) -> Result<(), String> {
    finished
        .and_then(|mut w| w.flush())
        .map_err(|e| format!("writing {what}: {e}"))?;
    writeln!(out, "{what} written to {path}").expect("write");
    Ok(())
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
        crate::trace::drop_breakdown(&report.dropped_by_reason)
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
        if self.error.is_none() {
            self.write_snapshot();
        }
        self.error.map_or(Ok(()), Err)
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
