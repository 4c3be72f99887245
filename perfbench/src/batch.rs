//! batch_skewed: `dbr distance 2 --batch FILE --threads 2`, run in
//! process through `debruijn_suite::cli::{parse, run}` — the two calls
//! the `dbr` binary makes.
//!
//! The file holds 100 000 `DG(2,64)` pairs. Most destinations come from
//! a small hot pool, so the destination-major kernel groups them within
//! each 512-line chunk; the uniform rest are singletons for the scalar
//! engine. There are no sockets and no cache.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use debruijn_suite::cli::{self, Command};
use debruijn_suite::core::distance::undirected::{distance_with, Engine};

use crate::gen::{self, push_word64, word64};
use crate::host::{self, HostCpu, Usage};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;

/// `--threads` of the batch invocation.
pub const THREADS: usize = 2;
/// Lines per work unit in the CLI's batch mode.
pub const CHUNK: usize = 512;
/// The declared band of `kernel.grouped_share`: the share of pairs whose
/// destination repeats within their chunk.
pub const GROUPED_SHARE_BAND: (f64, f64) = (0.70, 0.88);
/// Set-ups per run: one invocation on a one-line file takes well under
/// a millisecond.
const SETUPS: usize = 31;
const MIN_PASSES: usize = 3;

/// Where the benchmark writes its generated files and traces: inside
/// its own directory of the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The generated batch files, removed when dropped.
pub struct BatchFiles {
    pub big: PathBuf,
    pub one: PathBuf,
}

impl BatchFiles {
    pub fn write(seed: u64) -> io::Result<Self> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir)?;
        let pid = std::process::id();
        let files = Self {
            big: dir.join(format!("batch-{pid}-{seed}.txt")),
            one: dir.join(format!("batch-one-{pid}-{seed}.txt")),
        };
        let mut big = BufWriter::new(File::create(&files.big)?);
        let mut line = Vec::with_capacity(2 * gen::K64 + 2);
        for (i, (x, y)) in gen::batch_pairs(seed).enumerate() {
            line.clear();
            push_word64(&mut line, x);
            line.push(b' ');
            push_word64(&mut line, y);
            line.push(b'\n');
            big.write_all(&line)?;
            if i == 0 {
                std::fs::write(&files.one, &line)?;
            }
        }
        big.flush()?;
        Ok(files)
    }
}

impl Drop for BatchFiles {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.big);
        let _ = std::fs::remove_file(&self.one);
    }
}

/// `dbr distance 2 --batch <path> --threads 2`, parsed as `dbr` does.
pub fn command(path: &std::path::Path) -> Result<Command, String> {
    let args: Vec<String> = [
        "distance",
        "2",
        "--batch",
        path.to_str().ok_or("non-UTF-8 path")?,
        "--threads",
        &THREADS.to_string(),
    ]
    .map(String::from)
    .to_vec();
    cli::parse(&args)
}

/// How the input groups by destination within the CLI's chunks:
/// `(share of pairs whose destination repeats within their chunk, mean
/// number of such repeated destinations per chunk)`.
pub fn grouping(seed: u64) -> (f64, f64) {
    let ys: Vec<u64> = gen::batch_pairs(seed).map(|(_, y)| y).collect();
    let (mut grouped, mut groups) = (0usize, 0usize);
    for chunk in ys.chunks(CHUNK) {
        let mut counts = std::collections::HashMap::new();
        for y in chunk {
            *counts.entry(y).or_insert(0usize) += 1;
        }
        grouped += chunk.iter().filter(|y| counts[y] > 1).count();
        groups += counts.values().filter(|&&c| c > 1).count();
    }
    (
        grouped as f64 / ys.len() as f64,
        groups as f64 / ys.len().div_ceil(CHUNK) as f64,
    )
}

#[derive(Debug, Default)]
pub struct BatchRun {
    pub setup_s: Vec<f64>,
    pub pass_s: Vec<f64>,
    /// Host steal share during each pass.
    pub pass_steal: Vec<f64>,
    pub lines: u64,
    pub failed: u64,
    pub cpu_us: f64,
    pub steal_share: f64,
    pub peak_rss_kib: u64,
    pub grouped_share: f64,
    pub groups_per_chunk: f64,
    pub problems: Vec<String>,
}

/// Runs batch_skewed: set-ups on the one-line file, then whole-file
/// invocations for `seconds` (at least three), then the checks.
pub fn run(
    files: &BatchFiles,
    seed: u64,
    seconds: f64,
    setups: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<BatchRun, String> {
    let mut out = BatchRun::default();
    let one = command(&files.one)?;
    let big = command(&files.big)?;
    let (x0, y0) = gen::batch_pairs(seed).next().expect("a non-empty batch");
    let want_one = format!(
        "{}\n",
        distance_with(Engine::Auto, &word64(x0), &word64(y0))
    );
    for _ in 0..setups {
        let t0 = Instant::now();
        let text = cli::run(&one)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        if text != want_one {
            out.problems.push(format!(
                "one-line batch answered {text:?}, want {want_one:?}"
            ));
        }
    }

    let usage = Usage::start();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first_hash = None;
    let mut differing_passes = 0u64;
    let mut last;
    loop {
        let pass = out.pass_s.len() as u64;
        let host = HostCpu::now();
        let t0 = Instant::now();
        let text = cli::run(&big)?;
        let t1 = Instant::now();
        out.pass_s.push((t1 - t0).as_secs_f64());
        out.pass_steal.push(HostCpu::now().steal_share_since(&host));
        if let Some(t) = tracer.as_deref_mut() {
            t.record("cli.run", pass, t0, t1);
        }
        let h = gen::fnv1a(gen::FNV_OFFSET, text.as_bytes());
        if *first_hash.get_or_insert(h) != h {
            differing_passes += 1;
        }
        last = text;
        if out.pass_s.len() >= MIN_PASSES && Instant::now() >= deadline {
            break;
        }
    }
    let (cpu_us, steal_share) = usage.since_start();
    out.cpu_us = cpu_us;
    out.steal_share = steal_share;
    out.peak_rss_kib = host::peak_rss_kib();

    // Checks: every output line against a per-pair scalar solve.
    let mut lines = last.lines();
    let mut wrong = 0u64;
    for (x, y) in gen::batch_pairs(seed) {
        let want = distance_with(Engine::Auto, &word64(x), &word64(y));
        if lines.next().and_then(|l| l.parse::<usize>().ok()) != Some(want) {
            wrong += 1;
        }
    }
    wrong += lines.count() as u64;
    let passes = out.pass_s.len() as u64;
    out.lines = gen::BATCH_LINES as u64 * passes;
    out.failed = wrong * passes + differing_passes * gen::BATCH_LINES as u64;
    if wrong > 0 {
        out.problems
            .push(format!("{wrong} batch lines differ from distance_with"));
    }
    if differing_passes > 0 {
        out.problems.push(format!(
            "{differing_passes} passes printed different output"
        ));
    }
    (out.grouped_share, out.groups_per_chunk) = grouping(seed);
    Ok(out)
}

impl BatchRun {
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_us / self.lines.max(1) as f64
    }

    /// Wall time of the calmest quarter of the passes, in seconds.
    pub fn calm_pass_s(&self) -> Vec<f64> {
        stats::calmest_quarter(&self.pass_steal)
            .into_iter()
            .map(|p| self.pass_s[p])
            .collect()
    }

    /// Pairs answered per second: the median over the calmest quarter of the
    /// passes.
    pub fn throughput(&self) -> f64 {
        gen::BATCH_LINES as f64 / stats::median(&mut self.calm_pass_s())
    }

    pub fn account(&self, report: &mut Report) {
        report.attempted += self.lines;
        report.failed += self.failed;
        report.problems.extend(self.problems.iter().cloned());
        let (lo, hi) = GROUPED_SHARE_BAND;
        let share = self.grouped_share;
        report.check((lo..=hi).contains(&share), || {
            format!("batch_skewed grouped share {share:.4} is outside [{lo}, {hi}]")
        });
        report.note(format!(
            "batch_skewed: {} passes of {} lines, --threads {THREADS}; grouped share {share:.4}; \
             cpu.us_per_op {:.3}, host.steal_share {:.4}",
            self.pass_s.len(),
            gen::BATCH_LINES,
            self.cpu_us_per_op(),
            self.steal_share,
        ));
    }
}

/// The untraced batch_skewed run.
pub fn workload(seed: u64, seconds: f64) -> Result<Report, String> {
    let files = BatchFiles::write(seed).map_err(|e| format!("writing the batch file: {e}"))?;
    let run = run(&files, seed, seconds, SETUPS, None)?;
    let mut report = Report::default();
    run.account(&mut report);
    let mut pass_ms: Vec<f64> = run.calm_pass_s().iter().map(|s| s * 1e3).collect();
    report.metric("setup_s", stats::median(&mut run.setup_s.clone()), "s");
    report.metric("throughput_per_s", run.throughput(), "1/s");
    report.metric("latency_p50_ms", stats::quantile(&mut pass_ms, 0.5), "ms");
    report.metric("latency_p90_ms", stats::quantile(&mut pass_ms, 0.9), "ms");
    report.metric("peak_rss_mb", run.peak_rss_kib as f64 / 1024.0, "MiB");
    Ok(report)
}
