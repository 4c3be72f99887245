//! sim_zipf: one burst of 200 000 messages with Zipf(1.0) destinations
//! through `ShardedSimulation` on undirected `DG(2,12)`, 8 shards, 2
//! threads and the dense next-hop table.
//!
//! Next hops are table lookups, so the shard loop, link queues,
//! mailboxes and tick barrier carry the time and the word-level engines
//! none. The burst is run repeatedly for the timed phase; one further
//! untimed run with an `InMemoryRecorder` gives the simulated-tick
//! latency percentiles, which depend only on the seed.

use std::time::{Duration, Instant};

use debruijn_suite::core::distance::undirected::{distance_with, Engine};
use debruijn_suite::core::{DeBruijn, Word};
use debruijn_suite::net::{
    EventClass, InMemoryRecorder, Injection, NetEvent, NextHopMode, Recorder, ShardedSimulation,
    SimConfig, SimReport,
};

use crate::gen;
use crate::host::{self, HostCpu, Usage};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;

pub const SHARDS: usize = 8;
pub const THREADS: usize = 2;
const SETUPS: usize = 5;
const MIN_RUNS: usize = 3;

pub fn space() -> DeBruijn {
    DeBruijn::new(2, gen::SIM_K).expect("DG(2,12) is a valid space")
}

/// The default simulation settings (Algorithm 2, so undirected; unit
/// link latency and service) on 2 threads.
pub fn config() -> SimConfig {
    SimConfig {
        threads: THREADS,
        ..SimConfig::default()
    }
}

fn word(rank: u64) -> Word {
    Word::from_rank(2, gen::SIM_K, u128::from(rank)).expect("rank inside DG(2,12)")
}

/// The seeded burst, all injected at tick 0.
pub fn traffic(seed: u64) -> Vec<Injection> {
    gen::sim_pairs(seed)
        .into_iter()
        .map(|(s, d)| Injection {
            time: 0,
            source: word(s),
            destination: word(d),
        })
        .collect()
}

/// Builds the simulator as a user would: the constructor resolves the
/// dense next-hop table for a space this small.
pub fn build() -> Result<ShardedSimulation, String> {
    let sim = ShardedSimulation::new(space(), config(), SHARDS).map_err(|e| e.to_string())?;
    if sim.next_hop_mode() != NextHopMode::Dense {
        return Err(format!(
            "expected the dense next-hop table, got {:?}",
            sim.next_hop_mode()
        ));
    }
    Ok(sim)
}

/// An `InMemoryRecorder` subscribed to injections, deliveries and drops
/// only, so the recorded run does not buffer one event per hop.
#[derive(Default)]
pub struct Deliveries(pub InMemoryRecorder);

impl Recorder for Deliveries {
    fn wants(&self, class: EventClass) -> bool {
        matches!(
            class,
            EventClass::Inject | EventClass::Deliver | EventClass::Drop
        )
    }

    fn record(&mut self, event: &NetEvent) {
        self.0.record(event);
    }
}

#[derive(Debug, Default)]
pub struct SimRun {
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    /// Host steal share during each timed run.
    pub run_steal: Vec<f64>,
    pub messages: u64,
    pub failed: u64,
    pub cpu_us: f64,
    pub steal_share: f64,
    pub peak_rss_kib: u64,
    pub report: SimReport,
    pub latency_p50_ticks: f64,
    pub latency_p99_ticks: f64,
    pub problems: Vec<String>,
}

/// Runs sim_zipf: repeated constructions (the last one is kept), the
/// burst for `seconds` (at least three times), one recorded run, checks.
pub fn run(
    traffic: &[Injection],
    seconds: f64,
    setups: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<(SimRun, ShardedSimulation), String> {
    let mut out = SimRun::default();
    let mut sim = None;
    for _ in 0..setups {
        // Drop the previous simulator first so two tables never coexist.
        drop(sim.take());
        let t0 = Instant::now();
        let built = build()?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        sim = Some(built);
    }
    let sim = sim.expect("at least one set-up");

    let usage = Usage::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first: Option<SimReport> = None;
    let mut differing = 0u64;
    loop {
        let i = out.run_s.len() as u64;
        let host = HostCpu::now();
        let t0 = Instant::now();
        let report = sim.run(traffic);
        let t1 = Instant::now();
        out.run_s.push((t1 - t0).as_secs_f64());
        out.run_steal.push(HostCpu::now().steal_share_since(&host));
        if let Some(t) = tracer.as_deref_mut() {
            t.record("sim.run", i, t0, t1);
        }
        match &first {
            None => first = Some(report),
            Some(f) if *f != report => differing += 1,
            Some(_) => {}
        }
        if out.run_s.len() >= MIN_RUNS && Instant::now() >= deadline {
            break;
        }
    }
    let (cpu_us, steal_share) = usage.since_start();
    out.cpu_us = cpu_us;
    out.steal_share = steal_share;
    out.peak_rss_kib = host::peak_rss_kib();
    out.messages = (traffic.len() * out.run_s.len()) as u64;

    // The untimed recorded run, then the checks.
    let mut recorder = Deliveries::default();
    let recorded = sim.run_recorded(traffic, &mut recorder);
    let first = first.expect("at least one timed run");
    if first != recorded {
        differing += 1;
    }
    if differing > 0 {
        out.problems.push(format!(
            "{differing} timed reports differ from the recorded run"
        ));
    }
    let injected = traffic.len();
    if recorded.injected != injected || recorded.delivered != injected || recorded.dropped != 0 {
        out.problems.push(format!(
            "injected {injected}, report says injected {} delivered {} dropped {}",
            recorded.injected, recorded.delivered, recorded.dropped
        ));
    }
    let optimal: u64 = traffic
        .iter()
        .map(|inj| distance_with(Engine::Auto, &inj.source, &inj.destination) as u64)
        .sum();
    if recorded.total_hops != optimal {
        out.problems.push(format!(
            "total hops {} differ from the sum of undirected distances {optimal}",
            recorded.total_hops
        ));
    }
    // Undelivered messages fail in every run; a run whose report differs
    // from the recorded run fails as a whole.
    let lost = injected.saturating_sub(recorded.delivered) as u64;
    out.failed = (lost * out.run_s.len() as u64 + differing * injected as u64).min(out.messages);

    let latency = &recorder.0.latency;
    out.latency_p50_ticks = stats::grouped_quantile(latency.iter(), latency.count(), 0.5);
    out.latency_p99_ticks = stats::grouped_quantile(latency.iter(), latency.count(), 0.99);
    out.report = recorded;
    Ok((out, sim))
}

impl SimRun {
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_us / self.messages.max(1) as f64
    }

    /// Wall time of the calmest quarter of the timed runs, in seconds.
    pub fn calm_run_s(&self) -> Vec<f64> {
        stats::calmest_quarter(&self.run_steal)
            .into_iter()
            .map(|r| self.run_s[r])
            .collect()
    }

    /// Messages delivered per second: the median over the calmest quarter of
    /// the timed runs.
    pub fn throughput(&self) -> f64 {
        self.report.delivered as f64 / stats::median(&mut self.calm_run_s())
    }

    pub fn account(&self, report: &mut Report) {
        report.attempted += self.messages;
        report.failed += self.failed;
        report.problems.extend(self.problems.iter().cloned());
        report.note(format!(
            "sim_zipf: {} runs of {} messages on DG(2,{}), {SHARDS} shards, {THREADS} threads; \
             msg_latency_p50_ticks {:.4}, msg_latency_p99_ticks {:.4}, makespan {} ticks; \
             cpu.us_per_op {:.4}, host.steal_share {:.4}",
            self.run_s.len(),
            gen::SIM_MESSAGES,
            gen::SIM_K,
            self.latency_p50_ticks,
            self.latency_p99_ticks,
            self.report.makespan,
            self.cpu_us_per_op(),
            self.steal_share,
        ));
    }
}

/// The untraced sim_zipf run.
pub fn workload(seed: u64, seconds: f64) -> Result<Report, String> {
    let traffic = traffic(seed);
    let (run, _sim) = run(&traffic, seconds, SETUPS, None)?;
    let mut report = Report::default();
    run.account(&mut report);
    let mut run_ms: Vec<f64> = run.calm_run_s().iter().map(|s| s * 1e3).collect();
    report.metric("setup_s", stats::median(&mut run.setup_s.clone()), "s");
    report.metric("throughput_per_s", run.throughput(), "1/s");
    report.metric("latency_p50_ms", stats::quantile(&mut run_ms, 0.5), "ms");
    report.metric("latency_p90_ms", stats::quantile(&mut run_ms, 0.9), "ms");
    report.metric("peak_rss_mb", run.peak_rss_kib as f64 / 1024.0, "MiB");
    Ok(report)
}
