//! Regression gate over `BENCH_results.json`.
//!
//! `bench_check <baseline.json> <candidate.json> [--threshold <pct>]`
//! compares every `(bench, series, size)` point present in the
//! candidate file against the baseline and exits non-zero if any
//! point is more than `<pct>` percent slower (default 30). Points
//! without a baseline counterpart — a new series, a new size — are
//! reported but never fail the check, so adding a series does not
//! require regenerating the whole file first.
//!
//! The files are the restricted JSON emitted by
//! [`debruijn_bench::JsonReport`] (flat objects, `[a-z0-9_]` names, no
//! escapes), so a key-scanning parser is sufficient; this binary must
//! not pull in a JSON dependency just for that.

use std::process::ExitCode;

#[derive(Debug, PartialEq)]
struct Point {
    bench: String,
    series: String,
    size: u64,
    value: f64,
}

/// The quoted value following `"key":"` at `text`'s next occurrence,
/// together with the remainder after the closing quote.
fn quoted_after<'a>(text: &'a str, key: &str) -> Option<(&'a str, &'a str)> {
    let tag = format!("\"{key}\":\"");
    let start = text.find(&tag)? + tag.len();
    let rest = &text[start..];
    let end = rest.find('"')?;
    Some((&rest[..end], &rest[end + 1..]))
}

/// The number following `"key":` at `text`'s next occurrence.
fn number_after<'a>(text: &'a str, key: &str) -> Option<(f64, &'a str)> {
    let tag = format!("\"{key}\":");
    let start = text.find(&tag)? + tag.len();
    let rest = &text[start..];
    let end = rest
        .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
        .unwrap_or(rest.len());
    let value = rest[..end].parse().ok()?;
    Some((value, &rest[end..]))
}

/// All measurement points in a `BENCH_results.json`-format string.
fn parse_points(text: &str) -> Result<Vec<Point>, String> {
    let mut points = Vec::new();
    let mut rest = text;
    while let Some((bench, after_bench)) = quoted_after(rest, "bench") {
        // This bench's results run until the next "bench" key (or EOF).
        let body_end = after_bench
            .find("\"bench\":\"")
            .unwrap_or(after_bench.len());
        let mut body = &after_bench[..body_end];
        while let Some((series, after_series)) = quoted_after(body, "series") {
            let (size, after_size) = number_after(after_series, "size")
                .ok_or_else(|| format!("{bench}/{series}: missing \"size\""))?;
            let (value, after_value) = number_after(after_size, "value")
                .ok_or_else(|| format!("{bench}/{series}: missing \"value\""))?;
            points.push(Point {
                bench: bench.to_string(),
                series: series.to_string(),
                size: size as u64,
                value,
            });
            body = after_value;
        }
        rest = &after_bench[body_end..];
    }
    if points.is_empty() {
        return Err("no measurement points found".to_string());
    }
    Ok(points)
}

/// Candidate points more than `threshold_pct` percent above their
/// baseline, as printable report lines.
fn regressions(baseline: &[Point], candidate: &[Point], threshold_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for point in candidate {
        let base = baseline
            .iter()
            .find(|b| b.bench == point.bench && b.series == point.series && b.size == point.size);
        let label = format!("{}/{} k={}", point.bench, point.series, point.size);
        match base {
            None => println!("  new    {label}: {:.1} (no baseline)", point.value),
            Some(base) => {
                let ratio = if base.value > 0.0 {
                    point.value / base.value
                } else {
                    1.0
                };
                let verdict = if ratio > 1.0 + threshold_pct / 100.0 {
                    failures.push(format!(
                        "{label}: {:.1} vs baseline {:.1} ({:+.1}%)",
                        point.value,
                        base.value,
                        (ratio - 1.0) * 100.0
                    ));
                    "REGRESS"
                } else {
                    "ok"
                };
                println!(
                    "  {verdict:<7}{label}: {:.1} vs {:.1} ({:+.1}%)",
                    point.value,
                    base.value,
                    (ratio - 1.0) * 100.0
                );
            }
        }
    }
    failures
}

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold_pct = 30.0;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threshold" {
            i += 1;
            threshold_pct = args
                .get(i)
                .and_then(|v| v.parse().ok())
                .ok_or("--threshold needs a number (percent)")?;
        } else {
            paths.push(args[i].clone());
        }
        i += 1;
    }
    let [baseline_path, candidate_path] = paths.as_slice() else {
        return Err(
            "usage: bench_check <baseline.json> <candidate.json> [--threshold <pct>]".to_string(),
        );
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let baseline =
        parse_points(&read(baseline_path)?).map_err(|e| format!("{baseline_path}: {e}"))?;
    let candidate =
        parse_points(&read(candidate_path)?).map_err(|e| format!("{candidate_path}: {e}"))?;
    println!("bench_check: {candidate_path} vs {baseline_path} (threshold {threshold_pct}%)");
    let failures = regressions(&baseline, &candidate, threshold_pct);
    if failures.is_empty() {
        println!("bench_check: no series regressed more than {threshold_pct}%");
        Ok(true)
    } else {
        println!("bench_check: {} regression(s):", failures.len());
        for f in &failures {
            println!("  {f}");
        }
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_check: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
{"bench":"distance_engines","unit":"ns_per_pair","results":[{"series":"mp","size":8,"value":100.0},{"series":"mp","size":32,"value":400.5}]},
{"bench":"simulation_throughput","unit":"ns_per_message","overhead_pct":2.61,"results":[{"series":"alg2","size":1000,"value":5738.5}]}
]"#;

    #[test]
    fn parses_every_point_with_bench_attribution() {
        let points = parse_points(SAMPLE).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].bench, "distance_engines");
        assert_eq!(points[0].series, "mp");
        assert_eq!(points[0].size, 8);
        assert_eq!(points[0].value, 100.0);
        assert_eq!(points[2].bench, "simulation_throughput");
        assert_eq!(points[2].value, 5738.5);
    }

    #[test]
    fn rejects_files_without_points() {
        assert!(parse_points("[]").is_err());
        assert!(parse_points("not json at all").is_err());
    }

    fn point(series: &str, size: u64, value: f64) -> Point {
        Point {
            bench: "b".to_string(),
            series: series.to_string(),
            size,
            value,
        }
    }

    #[test]
    fn flags_only_points_beyond_the_threshold() {
        let baseline = vec![point("a", 8, 100.0), point("b", 8, 100.0)];
        let candidate = vec![
            point("a", 8, 129.0), // +29% — within threshold
            point("b", 8, 131.0), // +31% — regression
            point("c", 8, 999.0), // no baseline — ignored
        ];
        let failures = regressions(&baseline, &candidate, 30.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("b/b k=8"), "{failures:?}");
    }

    #[test]
    fn improvements_never_fail() {
        let baseline = vec![point("a", 8, 100.0)];
        let candidate = vec![point("a", 8, 10.0)];
        assert!(regressions(&baseline, &candidate, 30.0).is_empty());
    }
}
