//! `dbr localize`: replay a recorded trace through fault-localizing
//! monitors, and the monitor plumbing `dbr simulate --monitors` shares.

use std::fmt::Write as _;

use debruijn_core::DeBruijn;
use debruijn_graph::DebruijnGraph;
use debruijn_net::{MonitorConfig, MonitorSet, Placement, Recorder, Verdict};

use super::args::{number, Args};
use super::{parse_radix, space_of, USAGE};
use crate::trace;

/// Parses a `--monitors` value: `identifying`, `all`, or `none`.
pub(super) fn parse_placement(value: &str) -> Result<Option<Placement>, String> {
    match value {
        "none" => Ok(None),
        _ => Placement::parse(value).map(Some).ok_or_else(|| {
            format!("unknown monitor placement '{value}' (expected identifying|all|none)")
        }),
    }
}

/// `dbr localize <d> <k> <trace.jsonl> [--directed] [--monitors
/// identifying|all] [--threshold N]`: replay a trace through a monitor
/// set and print the fault-localization verdict with the monitor
/// evidence table.
#[derive(Debug, Clone, PartialEq)]
pub struct Localize {
    /// Digit radix.
    pub d: u8,
    /// Word length.
    pub k: usize,
    /// The JSONL trace to replay (from `--trace` or a flight dump).
    pub file: String,
    /// Decode against the directed graph's in-balls (traces from
    /// `--router alg1`/`trivial`) instead of the undirected ones.
    pub directed: bool,
    /// Monitor placement to decode with.
    pub monitors: Placement,
    /// Graded anomaly count a monitor needs before its bit is set.
    pub threshold: u64,
}

impl Localize {
    pub(super) fn parse(rest: &[&str]) -> Result<Self, String> {
        let args = Args::split(rest, USAGE, "localize")?;
        let [d, k, file] = args.positional("localize <d> <k> <trace.jsonl>")?;
        let monitors = args
            .parsed("--monitors", parse_placement)?
            .unwrap_or(Some(Placement::Identifying))
            .ok_or("localize needs monitors (identifying|all)")?;
        Ok(Self {
            d: parse_radix(d)?,
            k: number(k, "k")?,
            file: file.to_string(),
            directed: args.switch("--directed"),
            monitors,
            threshold: args
                .parsed("--threshold", |v| match v.parse::<u64>() {
                    Ok(n) if n > 0 => Ok(n),
                    _ => Err(format!("bad threshold '{v}' (need >= 1)")),
                })?
                .unwrap_or(1),
        })
    }

    /// Replays the trace and prints the evidence table and verdict.
    pub fn run(&self) -> Result<String, String> {
        let space = space_of(self.d, self.k)?;
        let mut monitor_set =
            build_monitors(space, self.directed, self.monitors)?.with_config(MonitorConfig {
                threshold: self.threshold,
                ..MonitorConfig::default()
            });
        let file = &self.file;
        let text = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read trace '{file}': {e}"))?;
        let events = replay(&mut monitor_set, file, &text)?;
        let mut out = format!("replayed:  {events} event(s) from {file}\n");
        write_monitor_report(&mut out, &monitor_set, &monitor_set.localize());
        Ok(out)
    }
}

/// Feeds the JSONL trace `text` (named `file` in errors) to `monitors`,
/// returning the number of events replayed.
///
/// # Errors
///
/// As [`trace::parse`] for traces of the monitored graph's radix and
/// word length, before any event reaches the monitors.
pub fn replay(monitors: &mut MonitorSet, file: &str, text: &str) -> Result<usize, String> {
    let space = monitors.graph().space();
    let trace = trace::parse(file, text, Some(space.d()), Some(space.k()))?;
    for event in &trace.events {
        monitors.record(event);
    }
    Ok(trace.events.len())
}

/// Builds the `--monitors` placement on the graph matching the route
/// direction: Algorithm 1 and the trivial router only shift left, so a
/// fault is witnessed by its *directed* in-ball; Algorithms 2/4 route
/// on the bidirectional network, so the undirected ball applies.
pub(super) fn build_monitors(
    space: DeBruijn,
    directed: bool,
    placement: Placement,
) -> Result<MonitorSet, String> {
    let graph = if directed {
        DebruijnGraph::directed(space)
    } else {
        DebruijnGraph::undirected(space)
    }
    .map_err(|e| e.to_string())?;
    match placement {
        Placement::Identifying => MonitorSet::identifying(graph)
            .map_err(|e| format!("cannot place identifying monitors: {e}")),
        Placement::All => Ok(MonitorSet::all(graph)),
    }
}

/// The monitor placement line, evidence table and verdict shared by
/// `dbr simulate --monitors` and `dbr localize`.
pub(super) fn write_monitor_report(out: &mut String, monitors: &MonitorSet, verdict: &Verdict) {
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
