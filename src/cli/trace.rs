//! `dbr trace`: offline analysis of `--trace` JSONL files.

use crate::trace::{self, TraceMetric};

use super::args::{grammar, takes_value, Args};
use super::parse_radix;

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

/// The analyses, in [`TRACE_USAGE`] order.
const ACTIONS: [&str; 6] = ["summary", "links", "hist", "diff", "prom", "export"];

impl TraceAction {
    pub(super) fn parse(rest: &[&str]) -> Result<Self, String> {
        // Flags may precede the action, so find it as the first argument
        // that is neither a flag nor the value of one, then split the
        // other arguments by the action's own grammar.
        let family = grammar(TRACE_USAGE, "trace");
        let mut at = 0;
        while let Some(flag) = rest.get(at).filter(|a| a.starts_with("--")) {
            at += 1 + usize::from(takes_value(&family, flag) == Some(true));
        }
        let &action = rest
            .get(at)
            .ok_or_else(|| format!("missing trace action\n\n{TRACE_USAGE}"))?;
        if !ACTIONS.contains(&action) {
            return Err(format!("unknown trace action '{action}'\n\n{TRACE_USAGE}"));
        }
        let others = [&rest[..at], &rest[at + 1..]].concat();
        let args = Args::split(&others, TRACE_USAGE, &format!("trace {action}"))?;
        let radix = args.parsed("--radix", parse_radix)?;
        Ok(match action {
            "summary" => {
                let [file] = args.positional("trace summary <file>")?;
                Self::Summary {
                    file: file.to_string(),
                    radix,
                }
            }
            "links" => {
                let [file] = args.positional("trace links <file>")?;
                Self::Links {
                    file: file.to_string(),
                    radix,
                    top: args.num("--top")?.unwrap_or(10),
                }
            }
            "hist" => {
                let [metric, file] = args.positional("trace hist <metric> <file>")?;
                Self::Hist {
                    metric: TraceMetric::parse(metric)?,
                    file: file.to_string(),
                    radix,
                }
            }
            "diff" => {
                let [a, b] = args.positional("trace diff <A> <B>")?;
                Self::Diff {
                    a: a.to_string(),
                    b: b.to_string(),
                    radix,
                }
            }
            "prom" => {
                let [file] = args.positional("trace prom <file>")?;
                Self::Prom {
                    file: file.to_string(),
                    radix,
                    threads: args.num("--threads")?.unwrap_or(1),
                }
            }
            _ => {
                let [input, output] = args.positional("trace export <in> <out>")?;
                Self::Export {
                    input: input.to_string(),
                    output: output.to_string(),
                    radix,
                }
            }
        })
    }

    /// Runs the analysis and returns its report.
    pub fn run(&self) -> Result<String, String> {
        Ok(match self {
            Self::Summary { file, radix } => trace::summary(&trace::load(file, *radix)?),
            Self::Links { file, radix, top } => trace::links(&trace::load(file, *radix)?, *top),
            Self::Hist {
                metric,
                file,
                radix,
            } => trace::hist(&trace::load(file, *radix)?, *metric),
            Self::Diff { a, b, radix } => {
                trace::diff(&trace::load(a, *radix)?, &trace::load(b, *radix)?)
            }
            Self::Prom {
                file,
                radix,
                threads,
            } => trace::prom(&trace::load(file, *radix)?, *threads),
            Self::Export {
                input,
                output,
                radix,
            } => {
                let t = trace::load(input, *radix)?;
                let file = std::fs::File::create(output)
                    .map_err(|e| format!("cannot create '{output}': {e}"))?;
                trace::export(&t, std::io::BufWriter::new(file))
                    .and_then(|mut w| std::io::Write::flush(&mut w))
                    .map_err(|e| format!("writing '{output}': {e}"))?;
                format!("exported {} event(s) to {output}\n", t.events.len())
            }
        })
    }
}
