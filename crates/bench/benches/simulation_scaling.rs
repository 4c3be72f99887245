//! Thread-scaling of the sharded deterministic simulator: the same
//! fixed workload (a 50k-message uniform burst on `DG(2,10)`, 8
//! shards) run at 1, 2, 4, and 8 worker threads.
//!
//! Reports median ns per injected message for each thread count plus
//! the speedup over the 1-thread run (`speedup_vs_1_thread`, a ratio —
//! higher is better, so `bench.sh --check` excludes it from the
//! lower-is-better regression comparison via `--ns-only` and instead
//! gates it inside this binary: `--min-speedup-4t N` exits non-zero if
//! the 4-thread speedup falls below `N`).
//!
//! The workload is a burst (every message injected at tick 0) rather
//! than one-message-per-tick: a time-stepped engine can only
//! parallelize within a tick, so per-tick density is what exposes the
//! scaling. Determinism is not sacrificed for it — every thread count
//! here produces the identical report (asserted below).
//!
//! A second series (`ns_per_message_compressed`) runs the same workload
//! through the compressed shift-prediction tier (`--next-hop
//! compressed`) at 1 and 4 threads, so the checked-in baseline records
//! what large spaces pay for dropping the dense table. Its report is
//! asserted byte-identical to the dense runs.

use debruijn_bench::{json_mode, median_nanos_per_call, JsonReport};
use debruijn_core::DeBruijn;
use debruijn_net::record::{FanoutRecorder, JsonlRecorder, NullRecorder};
use debruijn_net::shard::{NextHopMode, ShardedSimulation};
use debruijn_net::{workload, InMemoryRecorder, ProfileConfig, SimConfig};
use std::hint::black_box;

const MESSAGES: usize = 50_000;
const SHARDS: usize = 8;
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The number following `flag`, if present.
fn flag_value(flag: &str) -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == flag)?;
    let value = args.get(i + 1).and_then(|v| v.parse().ok());
    if value.is_none() {
        eprintln!("{flag} needs a number");
        std::process::exit(2);
    }
    value
}

fn main() {
    let json = json_mode();
    let ns_only = std::env::args().any(|a| a == "--ns-only");
    let min_speedup_4t = flag_value("--min-speedup-4t");
    let mut report = JsonReport::new("simulation_scaling", "ns_per_message");

    let space = DeBruijn::new(2, 10).unwrap();
    let traffic = workload::uniform_burst(space, MESSAGES, 42);
    if !json {
        println!(
            "sharded simulator scaling: DG(2,10), {MESSAGES} burst messages, \
             {SHARDS} shards (median of 5 runs)\n"
        );
        println!(
            "{:>8} {:>16} {:>10}",
            "threads", "ns_per_message", "speedup"
        );
    }

    let mut baseline_report = None;
    let mut one_thread_ns = 0.0;
    let mut speedup_4t = 0.0;
    for threads in THREADS {
        let sim = ShardedSimulation::new(
            space,
            SimConfig {
                threads,
                ..SimConfig::default()
            },
            SHARDS,
        )
        .unwrap();
        assert!(sim.uses_table(), "DG(2,10) fits the next-hop table cap");
        let ns = median_nanos_per_call(
            || {
                black_box(sim.run(black_box(&traffic)));
            },
            1,
            5,
        ) / MESSAGES as f64;
        // The scaling claim is only meaningful if every thread count
        // computes the same simulation.
        let run = sim.run(&traffic);
        match &baseline_report {
            None => baseline_report = Some(run),
            Some(base) => assert_eq!(&run, base, "report differs at {threads} threads"),
        }
        if threads == 1 {
            one_thread_ns = ns;
        }
        let speedup = one_thread_ns / ns;
        if threads == 4 {
            speedup_4t = speedup;
        }
        report.push("ns_per_message", threads, ns);
        if !ns_only {
            report.push("speedup_vs_1_thread", threads, speedup);
        }
        if !json {
            println!("{threads:>8} {ns:>16.1} {speedup:>9.2}x");
        }
    }

    // The compressed shift-prediction tier on the same workload: no
    // dense table, O(1) memory per flight. Its per-message cost tracks
    // the dense series closely on directed-style hops; the gap is what
    // DG(2,20)+ pays for dropping the d^{2k}-byte table.
    for threads in [1usize, 4] {
        let sim = ShardedSimulation::new(
            space,
            SimConfig {
                threads,
                ..SimConfig::default()
            },
            SHARDS,
        )
        .unwrap()
        .with_next_hop(NextHopMode::Compressed)
        .unwrap();
        let ns = median_nanos_per_call(
            || {
                black_box(sim.run(black_box(&traffic)));
            },
            1,
            5,
        ) / MESSAGES as f64;
        let run = sim.run(&traffic);
        assert_eq!(
            Some(&run),
            baseline_report.as_ref(),
            "compressed tier diverged at {threads} threads"
        );
        report.push("ns_per_message_compressed", threads, ns);
        if !json {
            println!("{threads:>8} {ns:>16.1} (compressed tier)");
        }
    }

    if let Some(limit) = min_speedup_4t {
        // Scaling is bounded by the hardware: on a host with fewer
        // than 4 cores a 4-thread run cannot beat 1 thread, so the
        // floor only gates where the machine can express it. The gate
        // runs before the JSON is printed so a self-skip is recorded
        // in the emitted line rather than only on stderr.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores < 4 {
            let reason = format!(
                "4-thread speedup floor skipped: only {cores} core(s) available \
                 (measured {speedup_4t:.2}x)"
            );
            eprintln!("{reason}");
            report.skip(&reason);
        } else if speedup_4t < limit {
            eprintln!(
                "4-thread speedup {speedup_4t:.2}x below the {limit}x floor \
                 ({one_thread_ns:.0} ns/msg at 1 thread)"
            );
            std::process::exit(1);
        } else {
            eprintln!("4-thread speedup {speedup_4t:.2}x meets the {limit}x floor");
        }
    }

    let profiler_ok = flag_value("--max-profile-overhead-pct")
        .is_none_or(|limit| check_profiler(limit, space, &mut report));

    if json {
        println!("{}", report.render());
    } else {
        println!("\nSame report at every thread count (asserted); the residual");
        println!("is the tick barrier plus cross-shard mailbox traffic.");
    }
    if !profiler_ok {
        std::process::exit(1);
    }
}

/// Plain/profiled pairs behind `--max-profile-overhead-pct`, each run on
/// a burst of `PROFILE_MESSAGES` (about 14 ms at 1 thread on a 2-core
/// VM, so the whole estimate takes about 3 s). On that host single runs
/// drift by up to ±15%, and the per-pair ratios' IQR read 4–13 points;
/// 101 pairs bring two standard errors of the median below 2 points for
/// an IQR up to about 10.
const PROFILE_PAIRS: usize = 101;
const PROFILE_MESSAGES: usize = 10_000;

/// The engine-profiler gate behind `--max-profile-overhead-pct`: at
/// default sampling the profiled run must stay within `limit` percent
/// of the unprofiled one on its own uniform burst of `PROFILE_MESSAGES`
/// messages at 1 thread over `SHARDS` shards, and profiling must
/// not perturb any observable output — report, event trace, and
/// recorder metrics are asserted byte-identical across a {1,4}x{1,4}
/// shard/thread grid. The estimate — the median of per-pair ratios —
/// and the ratios' interquartile range go into `report`, which `main`
/// prints before it exits. Fails (returns `false`) when the estimate
/// exceeds `limit`, or when the IQR is too wide for the pairs to resolve
/// `limit`: two standard errors of the median,
/// `2 · 1.2533 · (IQR / 1.349) / √n` for roughly normal noise, must not
/// exceed it. Identity failures panic.
fn check_profiler(limit: f64, space: DeBruijn, report: &mut JsonReport) -> bool {
    let traffic = &workload::uniform_burst(space, PROFILE_MESSAGES, 42)[..];
    // One thread, where the 2-vCPU host adds the least scheduling noise.
    let sim = ShardedSimulation::new(
        space,
        SimConfig {
            threads: 1,
            ..SimConfig::default()
        },
        SHARDS,
    )
    .unwrap();
    let profile = ProfileConfig::default();
    let time = |profiled: bool| {
        let t = std::time::Instant::now();
        if profiled {
            black_box(sim.run_profiled(black_box(traffic), &mut NullRecorder, &profile));
        } else {
            black_box(sim.run_recorded(black_box(traffic), &mut NullRecorder));
        }
        t.elapsed().as_nanos() as f64
    };
    // Warm both paths once. Each pair then runs both back to back, in
    // alternating order, so drift in the host's speed hits both runs of
    // a pair alike and any cost of going first cancels.
    time(false);
    time(true);
    let mut ratios: Vec<f64> = (0..PROFILE_PAIRS)
        .map(|i| {
            let (plain, profiled) = if i % 2 == 0 {
                let plain = time(false);
                (plain, time(true))
            } else {
                let profiled = time(true);
                (time(false), profiled)
            };
            profiled / plain
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let pct = |i: usize| (ratios[i] - 1.0) * 100.0;
    let (q1, overhead_pct, q3) = (
        pct(PROFILE_PAIRS / 4),
        pct(PROFILE_PAIRS / 2),
        pct(PROFILE_PAIRS - 1 - PROFILE_PAIRS / 4),
    );
    let resolution = 2.0 * 1.2533 * (q3 - q1) / 1.349 / (PROFILE_PAIRS as f64).sqrt();
    report.field("profile_overhead_pct", overhead_pct);
    report.field("profile_overhead_q1_pct", q1);
    report.field("profile_overhead_q3_pct", q3);

    let small = DeBruijn::new(2, 8).unwrap();
    let grid_traffic = workload::uniform_burst(small, 2_000, 7);
    let observe = |sim: &ShardedSimulation, profiled: bool| {
        let mut jsonl = JsonlRecorder::new(Vec::new());
        let mut metrics = InMemoryRecorder::new();
        let mut fan = FanoutRecorder::new();
        fan.push(&mut jsonl);
        fan.push(&mut metrics);
        let report = if profiled {
            sim.run_profiled(&grid_traffic, &mut fan, &profile).0
        } else {
            sim.run_recorded(&grid_traffic, &mut fan)
        };
        drop(fan);
        (report, jsonl.finish().unwrap(), metrics)
    };
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let sim = ShardedSimulation::new(
                small,
                SimConfig {
                    threads,
                    ..SimConfig::default()
                },
                shards,
            )
            .unwrap();
            let plain = observe(&sim, false);
            let profiled = observe(&sim, true);
            assert_eq!(
                plain, profiled,
                "profiling perturbed output at S={shards} T={threads}"
            );
        }
    }
    eprintln!("profiler identity: report/trace/metrics unperturbed on the 2x2 grid");

    let reading = format!(
        "profiler overhead {overhead_pct:+.2}% ± {resolution:.2} (median of {PROFILE_PAIRS} \
         pairs ± 2 standard errors; ratio IQR {q1:+.2}% to {q3:+.2}%)"
    );
    if overhead_pct > limit {
        eprintln!("{reading} exceeds the {limit}% cap");
        false
    } else if resolution > limit {
        eprintln!("{reading}: too noisy to resolve the {limit}% cap");
        false
    } else {
        eprintln!("{reading} within the {limit}% cap");
        true
    }
}
