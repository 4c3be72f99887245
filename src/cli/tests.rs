//! Tests of the `dbr` parser and commands.
//!
//! Each family's tests sit next to its module, in `<family>_tests.rs`,
//! and are included here, so every test keeps its `cli::tests::` path.
//! Whole-command transcripts are pinned by `tests/golden_cli.rs`.

use std::sync::Arc;

use debruijn_core::distance::undirected::Engine;
use debruijn_core::DeBruijn;
use debruijn_graph::euler;
use debruijn_net::metrics::MetricsRegistry;
use debruijn_net::service::{QueryService, ServiceConfig};
use debruijn_net::{NextHopMode, Placement};

use super::*;
use crate::trace::TraceMetric;

fn parse_line(line: &str) -> Result<Command, String> {
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    parse(&args)
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
fn help_contains_usage() {
    let out = run(&Command::Help).unwrap();
    assert!(out.contains("USAGE"));
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

include!("query_tests.rs");
include!("graph_tests.rs");
include!("sim_tests.rs");
include!("localize_tests.rs");
include!("trace_tests.rs");
