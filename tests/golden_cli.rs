//! Golden transcripts of every `dbr` subcommand.
//!
//! Each `tests/golden/cli/<family>.txt` is a transcript: per invocation,
//! a `$ dbr …` line, then the text `cli::run` returned (the binary's
//! stdout) or `error: ` and the `Err` text of `cli::parse` or `cli::run`,
//! then a blank line. The invocations run in process, through the same
//! two calls `src/bin/dbr.rs` makes. Temporary paths print as `$TMP` and
//! the golden directory as `$GOLDEN`.
//!
//! One pipe pins only a prefix of a run's output: `| head -n 7` keeps
//! the seven headline lines of `dbr profile`, after which wall-clock
//! phase times follow.
//!
//! After a deliberate output change, rerun with `DBR_BLESS=1` to rewrite
//! the files, and review the diff.

use std::path::{Path, PathBuf};
use std::process::Command;

use debruijn_suite::cli;

const HEAD_7_CUT: &str = " | head -n 7";

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cli")
}

/// Runs one transcript line and renders its block.
fn block(tmp: &str, golden: &str, case: &str) -> String {
    let (line, cut) = match case.split_once(" | ") {
        Some((line, _)) => (line, &case[line.len()..]),
        None => (case, ""),
    };
    let args: Vec<String> = line
        .split_whitespace()
        .map(|a| a.replace("$TMP", tmp).replace("$GOLDEN", golden))
        .collect();
    let body = match cli::parse(&args).and_then(|cmd| cli::run(&cmd)) {
        Ok(out) => match cut {
            "" => out,
            HEAD_7_CUT => out.split_inclusive('\n').take(7).collect(),
            other => panic!("unknown pipe '{other}'"),
        },
        Err(e) => format!("error: {e}\n"),
    };
    let body = body.replace(tmp, "$TMP").replace(golden, "$GOLDEN");
    format!("$ dbr {case}\n{body}\n")
}

/// Runs `cases` in order and diffs the transcript against
/// `tests/golden/cli/{family}.txt`.
fn check(family: &str, cases: &[&str]) {
    let tmp_dir = std::env::temp_dir().join(format!("dbr-golden-{family}-{}", std::process::id()));
    std::fs::create_dir_all(&tmp_dir).unwrap();
    let tmp = tmp_dir.to_str().expect("UTF-8 temp dir").to_string();
    let golden = golden_dir().to_str().expect("UTF-8 path").to_string();
    let got: String = cases.iter().map(|c| block(&tmp, &golden, c)).collect();
    std::fs::remove_dir_all(&tmp_dir).ok();

    let path = golden_dir().join(format!("{family}.txt"));
    if std::env::var_os("DBR_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut command = "";
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if w.starts_with("$ dbr ") {
            command = w;
        }
        assert_eq!(g, w, "{family}.txt line {} ({command})", n + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "{family}.txt: line count"
    );
    assert_eq!(got, want, "{family}.txt: trailing bytes");
}

#[test]
fn query_commands_match_the_golden_transcript() {
    check(
        "query",
        &[
            "route 2 010011 110100",
            "route 2 010011 110100 --directed",
            "route 3 012210 221001",
            "route 12 11.3.0 3.0.11",
            "route 2 0110100111 1101001011 --engine auto",
            "route 2 0110100111 1101001011 --engine bit-parallel",
            "route 2 0110100111 1101001011 --engine suffix-tree",
            "route 2 0110100111 1101001011 --engine mp",
            "route 2 0110100111 1101001011 --engine naive",
            "route 2 --batch $GOLDEN/pairs.txt",
            "route 2 --batch $GOLDEN/pairs.txt --directed",
            "route 2 --batch $GOLDEN/pairs.txt --engine bit-parallel --threads 2",
            "route 2 --batch $GOLDEN/pairs.txt --engine suffix-tree",
            "route 2 --batch $GOLDEN/pairs.txt --engine mp",
            "route 2 --batch $GOLDEN/pairs.txt --engine naive",
            "distance 2 0110 1011",
            "distance 2 0110 1011 --directed",
            "distance 12 11.3.0 3.0.11",
            "distance 2 0110100111 1101001011 --engine auto",
            "distance 2 0110100111 1101001011 --engine bit-parallel",
            "distance 2 0110100111 1101001011 --engine suffix-tree",
            "distance 2 0110100111 1101001011 --engine mp",
            "distance 2 0110100111 1101001011 --engine naive",
            "distance 2 --batch $GOLDEN/pairs.txt",
            "distance 2 --batch $GOLDEN/pairs.txt --directed --threads 2",
            "distance 2 --batch $GOLDEN/pairs.txt --engine bit-parallel",
            "distance 2 --batch $GOLDEN/pairs.txt --engine suffix-tree",
            "distance 2 --batch $GOLDEN/pairs.txt --engine mp",
            "distance 2 --batch $GOLDEN/pairs.txt --engine naive",
            "multipath 2 0000 1111",
            "multipath 3 0120 2101",
            "gdb 2 12 3 7",
            "gdb 3 50 49 0",
            "disjoint 2 000 111",
            "disjoint 3 012 210",
        ],
    );
}

#[test]
fn structure_commands_match_the_golden_transcript() {
    check(
        "structure",
        &[
            "sequence 2 4",
            "sequence 2 4 --prefer-largest",
            "sequence 3 2",
            "sequence 12 1",
            "census 2 4",
            "census 3 3",
            "average 2 6",
            "average 2 6 --directed",
            "average 2 6 --samples 500",
            "average 3 4 --directed --samples 300",
            "help",
            "--help",
            "-h",
        ],
    );
}

#[test]
fn simulate_and_profile_match_the_golden_transcript() {
    check(
        "simulate",
        &[
            "simulate 2 6 --messages 400 --seed 3",
            "simulate 2 6 --messages 400 --seed 3 --shards 4 --threads 2",
            "simulate 2 6 --messages 400 --seed 3 --router alg1",
            "simulate 2 6 --messages 400 --seed 3 --router trivial",
            "simulate 2 6 --messages 400 --seed 3 --router alg4 --policy least-loaded",
            "simulate 2 6 --messages 400 --seed 3 --faults 000000,010101 --ttl 5",
            "simulate 2 6 --messages 400 --seed 3 --shards 2 --faults 010101 --ttl 4",
            "simulate 2 6 --messages 400 --seed 3 --workload zipf",
            "simulate 2 6 --messages 400 --seed 3 --workload burst --shards 2 --next-hop compressed",
            "simulate 2 6 --messages 400 --seed 3 --faults 010101 --monitors identifying",
            "simulate 2 6 --messages 400 --seed 3 --shards 2 --faults 000111 --monitors all",
            "simulate 2 6 --messages 400 --seed 3 --metrics",
            "simulate 2 6 --messages 400 --seed 3 --shards 2 --router alg4 --metrics",
            "simulate 2 6 --messages 400 --seed 3 --shards 2 --policy least-loaded --metrics",
            "profile 2 6 --messages 400 --seed 3 | head -n 7",
            "profile 2 6 --messages 400 --seed 3 --shards 2 --threads 2 --faults 010101 | head -n 7",
            "profile 2 6 --messages 400 --seed 3 --router trivial | head -n 7",
        ],
    );
}

#[test]
fn trace_and_localize_match_the_golden_transcript() {
    check(
        "trace",
        &[
            "simulate 2 6 --messages 300 --seed 7 --shards 2 --faults 010101 --trace $TMP/a.jsonl",
            "simulate 2 6 --messages 300 --seed 8 --router alg4 --policy least-loaded --trace $TMP/b.jsonl",
            "localize 2 6 $TMP/a.jsonl",
            "localize 2 6 $TMP/a.jsonl --monitors all --threshold 2",
            "localize 2 6 $TMP/b.jsonl --directed",
            "trace summary $TMP/a.jsonl",
            "trace summary $TMP/b.jsonl --radix 3",
            "trace links $TMP/a.jsonl",
            "trace links $TMP/a.jsonl --top 3",
            "trace --top 3 links $TMP/a.jsonl",
            "trace hist hops $TMP/a.jsonl",
            "trace hist queue-wait $TMP/b.jsonl",
            "trace diff $TMP/a.jsonl $TMP/b.jsonl",
            "trace prom $TMP/a.jsonl",
            "trace prom $TMP/b.jsonl --threads 2",
            "trace export $TMP/a.jsonl $TMP/a.json",
        ],
    );
}

#[test]
fn parse_and_run_errors_match_the_golden_transcript() {
    check(
        "errors",
        &[
            // Unknown names.
            "frob",
            "simulate 2 6 --metricss",
            "simulate 2 6 --route-cache 8",
            "trace frob $TMP/x.jsonl",
            "trace hist hopss $TMP/x.jsonl",
            "trace --top 3 summary $TMP/x.jsonl",
            "trace",
            // Missing values, bad numbers, zeros where >= 1 is needed.
            "simulate 2 6 --seed",
            "route 2 01 10 --engine",
            "simulate 2 6 --messages x",
            "simulate 2 6 --seed -1",
            "profile 2 6 --sample x",
            "simulate 2 6 --shards 0",
            "profile 2 6 --shards 0",
            "simulate 2 6 --progress 0",
            "simulate 2 6 --flight-capacity 0",
            "serve 2 --max-inflight 0",
            "serve 2 --batch 0",
            "localize 2 6 t.jsonl --threshold 0",
            "trace links t.jsonl --top x",
            "gdb 2 x 3 7",
            // Wrong positional counts.
            "census 2",
            "route 2 0110",
            "distance 2 01 10 --batch pairs.txt",
            "distance 2",
            "trace diff only-one.jsonl",
            "serve",
            "sequence 2 3 --prefer-largest 4",
            // Bad enumerated values.
            "census x 4",
            "trace summary run.jsonl --radix x",
            "route 2 01 10 --engine quantum",
            "simulate 2 6 --router fast",
            "simulate 2 6 --policy greedy",
            "simulate 2 6 --next-hop turbo",
            "simulate 2 6 --workload poisson",
            "simulate 2 6 --workload zipf:-1",
            "simulate 2 6 --monitors sometimes",
            "localize 2 6 t.jsonl --monitors none",
            // Errors from running a well-formed command.
            "distance 2 01 0110",
            "distance 2 0120 0000",
            "route 2 --batch $TMP/missing.txt",
            "gdb 2 12 12 0",
            "disjoint 2 000 000",
            "simulate 2 5 --next-hop dense --policy random",
            "simulate 2 5 --faults 00000,0x1",
            "simulate 2 5 --router trivial --shards 2 --next-hop compressed",
            "census 2 80",
            "sequence 2 30",
            "sequence 1 3",
            "trace summary $TMP/missing.jsonl",
            // Repeated flags, and value flags followed by a flag.
            "simulate 2 6 --messages 50 --seed 1 --seed 2",
            "route 2 01 10 --directed --directed",
            "simulate 2 6 --messages 50 --trace --metrics",
            "trace links $TMP/x.jsonl --top --radix 3",
        ],
    );
}

/// The binary prints one usage block per parse error: the error's own
/// when it embeds one (`dbr frob`, `dbr trace frob x`), `dbr help`'s
/// otherwise.
#[test]
fn parse_errors_print_one_usage_block() {
    for (args, usage) in [
        (&["frob"][..], "dbr — de Bruijn network routing toolbox"),
        (&["census", "2"], "dbr — de Bruijn network routing toolbox"),
        (
            &["trace", "frob", "x"],
            "dbr trace summary <file> [--radix D]",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dbr"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("error: "), "{args:?}:\n{stderr}");
        assert_eq!(stderr.matches("USAGE:").count(), 1, "{args:?}:\n{stderr}");
        assert!(stderr.contains(usage), "{args:?}:\n{stderr}");
    }
}
