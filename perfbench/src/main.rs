//! `perfbench`: the end-to-end and per-layer benchmark of the three
//! user-visible paths of the de Bruijn routing suite — queries through
//! the HTTP query service, `dbr distance --batch` files, and messages
//! through the sharded simulator.
//!
//! ```text
//! perfbench --workload <serve_hot|serve_cold|batch_skewed|sim_zipf>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input comes from the seed. With `--trace 0` the run prints the
//! end-to-end metrics of the workload; with `--trace 1` it replays the
//! workloads' inputs through the calls into each layer, wrapped in
//! spans, and prints the per-layer metrics. The last line of standard
//! output is one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. `NOTES.md` beside this package explains each
//! workload and metric.

mod batch;
mod gen;
mod host;
mod layers;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Serve(serve::Variant),
    Batch,
    Sim,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "serve_hot" => Workload::Serve(serve::Variant::Hot),
            "serve_cold" => Workload::Serve(serve::Variant::Cold),
            "batch_skewed" => Workload::Batch,
            "sim_zipf" => Workload::Sim,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve(v) => v.name(),
            Workload::Batch => "batch_skewed",
            Workload::Sim => "sim_zipf",
        }
    }
}

#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <serve_hot|serve_cold|batch_skewed|sim_zipf> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_string());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        layers::run(&args)
    } else {
        match args.workload {
            Workload::Serve(v) => serve::workload(v, args.seed, args.seconds),
            Workload::Batch => batch::workload(args.seed, args.seconds),
            Workload::Sim => sim::workload(args.seed, args.seconds),
        }
    };
    match result {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
