//! Offline analysis of JSONL simulation traces.
//!
//! `dbr simulate --trace FILE` streams every [`NetEvent`] as one JSON
//! line; this module turns such files back into reports without
//! re-running the simulation — the `dbr trace` subcommand family:
//!
//! * [`summary`] reconstructs the full `--metrics` report (histograms
//!   and counters) from a trace, reproducing the live numbers exactly;
//! * [`links`] ranks the hottest links with utilization, queue wait and
//!   depth high-water marks;
//! * [`hist`] renders one chosen metric as an ASCII histogram;
//! * [`diff`] compares two runs metric by metric;
//! * [`export`] converts a trace to the Chrome trace-event format for
//!   <https://ui.perfetto.dev>.
//!
//! Traces do not record the digit radix, so [`load`] infers it from
//! the addresses in the file (the smallest radix that can express
//! every digit seen); pass `--radix` to override when a run never
//! exercised its highest digits.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

use debruijn_analysis::Table;
use debruijn_net::record::parse_event;
use debruijn_net::telemetry::ChromeTraceRecorder;
use debruijn_net::{ExactHistogram, NetEvent, Recorder, Telemetry};

/// A parsed trace file: the radix used to decode addresses plus the
/// event stream in file order.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Digit radix the addresses were decoded with.
    pub d: u8,
    /// Events in file order: time order, as the simulator wrote them,
    /// each injection at its tick between the forwards.
    pub events: Vec<NetEvent>,
}

/// Reads and parses a JSONL trace file (see [`parse`]).
///
/// # Errors
///
/// Returns a message naming the file on I/O errors, and as [`parse`]
/// does otherwise.
pub fn load(path: &str, radix: Option<u8>) -> Result<Trace, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace '{path}': {e}"))?;
    parse(path, &text, radix, None)
}

/// Parses JSONL trace text, named `path` in errors.
///
/// Addresses are words of radix `radix` (for `None`, inferred via
/// [`infer_radix`]) and length `k` (for `None`, the first address's).
///
/// # Errors
///
/// Returns a message naming the file and line of the first line that is
/// not an event or names an address of another length, and one naming
/// the file when `d^k` overflows a `u128`: the analyses key nodes by
/// rank, which identifies a word only among words of one length, and
/// only while it fits.
pub fn parse(
    path: &str,
    text: &str,
    radix: Option<u8>,
    mut k: Option<usize>,
) -> Result<Trace, String> {
    let d = radix.unwrap_or_else(|| infer_radix(text));
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |e| format!("{path}:{}: {e}", i + 1);
        let event = parse_event(d, line).map_err(at)?;
        for w in event.addresses() {
            let k = *k.get_or_insert(w.len());
            if w.len() != k {
                return Err(at(format!("address {w} has {} digits, not {k}", w.len())));
            }
        }
        events.push(event);
    }
    let rankable =
        |k: usize| u32::try_from(k).is_ok_and(|k| u128::from(d).checked_pow(k).is_some());
    if let Some(k) = k.filter(|&k| !rankable(k)) {
        return Err(format!("{path}: {k}-digit addresses are too long to rank"));
    }
    Ok(Trace { d, events })
}

/// Smallest radix that can express every address digit in the trace.
///
/// Addresses are the only quoted JSON strings made of digits
/// (dot-separated digit values for radices above 10); field names and
/// enum names (`"forward"`, `"least-loaded"`, …) always contain
/// letters. Scanning those tokens and taking `max digit + 1` (clamped
/// to at least 2) recovers a radix every word in the file parses
/// under. It may undershoot the radix the run was configured with if
/// no address used the highest digits — harmless for analysis, which
/// never enumerates the space — and `--radix` overrides it.
pub fn infer_radix(text: &str) -> u8 {
    let mut max_digit = 1u8;
    for line in text.lines() {
        // Quoted tokens are the odd-indexed pieces between '"' splits;
        // addresses never contain escapes.
        for (i, token) in line.split('"').enumerate() {
            if i % 2 == 0 || token.is_empty() {
                continue;
            }
            if token.bytes().all(|b| b.is_ascii_digit()) {
                let top = token.bytes().map(|b| b - b'0').max().unwrap_or(0);
                max_digit = max_digit.max(top);
            } else if token.contains('.')
                && token
                    .split('.')
                    .all(|part| !part.is_empty() && part.bytes().all(|b| b.is_ascii_digit()))
            {
                for part in token.split('.') {
                    if let Ok(v) = part.parse::<u8>() {
                        max_digit = max_digit.max(v);
                    }
                }
            }
        }
    }
    max_digit.saturating_add(1).max(2)
}

/// Formats a per-reason loss total for the `dropped:` headline line:
/// `"0"` for a clean run, `"5 (dead-link 3, ttl 2)"` otherwise.
///
/// Shared by the live `dbr simulate` report (fed from
/// [`SimReport::dropped_by_reason`](debruijn_net::SimReport)) and the
/// offline [`summary`] (fed from the replayed
/// [`EventFold::drops_by_reason`](debruijn_net::EventFold::drops_by_reason)),
/// so the two renderings stay byte-identical and CI can diff them.
pub fn drop_breakdown(by_reason: &BTreeMap<&'static str, u64>) -> String {
    let total: u64 = by_reason.values().sum();
    if total == 0 {
        return "0".to_string();
    }
    let parts: Vec<String> = by_reason.iter().map(|(r, n)| format!("{r} {n}")).collect();
    format!("{total} ({})", parts.join(", "))
}

/// Folds a trace once: the exact counters and histograms of the
/// `--metrics` report, the per-link accumulators and the makespan.
fn aggregate(trace: &Trace) -> Telemetry<ExactHistogram> {
    let mut telemetry = Telemetry::default();
    for event in &trace.events {
        telemetry.record(event);
    }
    telemetry
}

/// Reconstructs the live report from a trace: the headline lines
/// `dbr simulate` prints (delivered, mean hops/latency, makespan)
/// followed by the full `--metrics` block, byte-identical to the live
/// run's block. On a run with faults the `delivered: N/M` denominator
/// counts Inject events, so it leaves out the messages a faulty source
/// or a missing route dropped at injection, which the live report
/// counts.
pub fn summary(trace: &Trace) -> String {
    let telemetry = aggregate(trace);
    let memory = &telemetry.fold;
    let mut out = String::new();
    writeln!(
        out,
        "events:       {} (radix {})",
        trace.events.len(),
        trace.d
    )
    .expect("write to string");
    writeln!(
        out,
        "delivered:    {}/{}",
        memory.delivered, memory.injected
    )
    .expect("write to string");
    writeln!(
        out,
        "dropped:      {}",
        drop_breakdown(&memory.drops_by_reason)
    )
    .expect("write to string");
    writeln!(out, "mean hops:    {:.4}", memory.hops.mean()).expect("write to string");
    writeln!(out, "mean latency: {:.4}", memory.latency.mean()).expect("write to string");
    writeln!(out, "max latency:  {}", memory.latency.max().unwrap_or(0)).expect("write to string");
    writeln!(out, "makespan:     {}", telemetry.last_time).expect("write to string");
    writeln!(out, "\n== metrics ==").expect("write to string");
    write!(out, "{memory}").expect("write to string");
    out
}

/// Ranks the `top` hottest links (by forwards) with utilization over
/// the run's makespan, mean queue wait and queue-depth high-water.
pub fn links(trace: &Trace, top: usize) -> String {
    let telemetry = aggregate(trace);
    let horizon = telemetry.last_time;
    let ranked = telemetry.hottest_links();
    let mut out = String::new();
    writeln!(
        out,
        "{} link(s) used over {} ticks{}",
        ranked.len(),
        horizon,
        match telemetry.link_imbalance() {
            Some(r) => format!(" (max/mean load imbalance {r:.2})"),
            None => String::new(),
        }
    )
    .expect("write to string");
    let mut table = Table::new(vec![
        "link".into(),
        "forwarded".into(),
        "utilization".into(),
        "mean wait".into(),
        "depth hwm".into(),
    ]);
    for ((from, to), stat) in ranked.into_iter().take(top) {
        table.row(vec![
            format!("{} -> {}", telemetry.name_of(from), telemetry.name_of(to)),
            stat.forwarded.to_string(),
            format!("{:.1}%", stat.utilization(horizon) * 100.0),
            format!("{:.3}", stat.mean_queue_wait()),
            stat.queue_depth_high_water.to_string(),
        ]);
    }
    write!(out, "{table}").expect("write to string");
    out
}

/// A per-message or per-hop metric that `dbr trace hist` can render.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMetric {
    /// Hops per delivered message.
    Hops,
    /// End-to-end latency per delivered message, in ticks.
    Latency,
    /// `hops − D(X,Y)` per delivered message.
    Stretch,
    /// Ticks spent waiting for a busy link, per forward.
    QueueWait,
    /// Messages already queued on the chosen link, per forward.
    QueueDepth,
    /// Handover-to-arrival ticks, per forward.
    PerHopLatency,
}

/// The metric names `dbr trace hist` accepts.
pub const METRIC_NAMES: &str = "hops|latency|stretch|queue-wait|queue-depth|per-hop-latency";

/// Every metric with its CLI name, in [`METRIC_NAMES`] order.
const METRICS: [(TraceMetric, &str); 6] = [
    (TraceMetric::Hops, "hops"),
    (TraceMetric::Latency, "latency"),
    (TraceMetric::Stretch, "stretch"),
    (TraceMetric::QueueWait, "queue-wait"),
    (TraceMetric::QueueDepth, "queue-depth"),
    (TraceMetric::PerHopLatency, "per-hop-latency"),
];

impl TraceMetric {
    /// Parses a CLI metric name.
    ///
    /// # Errors
    ///
    /// Lists the accepted names when `s` is not one of them.
    pub fn parse(s: &str) -> Result<Self, String> {
        METRICS
            .iter()
            .find(|&&(_, name)| name == s)
            .map(|&(metric, _)| metric)
            .ok_or_else(|| format!("unknown metric '{s}' (expected {METRIC_NAMES})"))
    }

    /// The CLI name of the metric.
    pub fn name(self) -> &'static str {
        METRICS
            .iter()
            .find(|&&(metric, _)| metric == self)
            .expect("METRICS lists every metric")
            .1
    }

    fn select(self, memory: &debruijn_net::InMemoryRecorder) -> &ExactHistogram {
        match self {
            Self::Hops => &memory.hops,
            Self::Latency => &memory.latency,
            Self::Stretch => &memory.stretch,
            Self::QueueWait => &memory.queue_wait,
            Self::QueueDepth => &memory.queue_depth,
            Self::PerHopLatency => &memory.per_hop_latency,
        }
    }
}

/// Renders one metric of a trace as an ASCII histogram with a
/// quantile headline.
pub fn hist(trace: &Trace, metric: TraceMetric) -> String {
    let telemetry = aggregate(trace);
    let h = metric.select(&telemetry.fold);
    let mut out = String::new();
    writeln!(
        out,
        "{} over {} observation(s) (mean {:.4}, p50 {}, p90 {}, p99 {}, max {}):",
        metric.name(),
        h.count(),
        h.mean(),
        h.percentile(50.0).unwrap_or(0),
        h.percentile(90.0).unwrap_or(0),
        h.percentile(99.0).unwrap_or(0),
        h.max().unwrap_or(0)
    )
    .expect("write to string");
    write!(out, "{h}").expect("write to string");
    out
}

/// Formats a float cell for the diff table.
fn float_cell(v: f64) -> String {
    format!("{v:.4}")
}

/// Signed delta between two integer cells.
fn int_delta(a: u64, b: u64) -> String {
    if b >= a {
        format!("+{}", b - a)
    } else {
        format!("-{}", a - b)
    }
}

/// Compares two traces metric by metric (`A` is the baseline; deltas
/// are `B − A`).
pub fn diff(a: &Trace, b: &Trace) -> String {
    let (ta, tb) = (aggregate(a), aggregate(b));
    let (ma, mb) = (&ta.fold, &tb.fold);
    let mut table = Table::new(vec![
        "metric".into(),
        "A".into(),
        "B".into(),
        "delta".into(),
    ]);
    let mut int_row = |name: &str, va: u64, vb: u64| {
        table.row(vec![
            name.into(),
            va.to_string(),
            vb.to_string(),
            int_delta(va, vb),
        ]);
    };
    int_row("injected", ma.injected, mb.injected);
    int_row("delivered", ma.delivered, mb.delivered);
    int_row("dropped", ma.dropped(), mb.dropped());
    int_row("reroutes", ma.reroutes, mb.reroutes);
    int_row(
        "wildcards",
        ma.wildcards_resolved(),
        mb.wildcards_resolved(),
    );
    int_row("makespan", ta.last_time, tb.last_time);
    int_row("links used", ta.links.len() as u64, tb.links.len() as u64);
    int_row(
        "p99 latency",
        ma.latency.percentile(99.0).unwrap_or(0),
        mb.latency.percentile(99.0).unwrap_or(0),
    );
    int_row(
        "max latency",
        ma.latency.max().unwrap_or(0),
        mb.latency.max().unwrap_or(0),
    );
    int_row(
        "max queue depth",
        ma.queue_depth.max().unwrap_or(0),
        mb.queue_depth.max().unwrap_or(0),
    );
    let mut float_row = |name: &str, va: f64, vb: f64| {
        table.row(vec![
            name.into(),
            float_cell(va),
            float_cell(vb),
            format!("{:+.4}", vb - va),
        ]);
    };
    float_row("mean hops", ma.hops.mean(), mb.hops.mean());
    float_row("mean stretch", ma.stretch.mean(), mb.stretch.mean());
    float_row("mean latency", ma.latency.mean(), mb.latency.mean());
    float_row(
        "mean queue wait",
        ma.queue_wait.mean(),
        mb.queue_wait.mean(),
    );
    table.to_string()
}

/// Renders a trace as Prometheus exposition text — the same families
/// a live `dbr simulate --listen` scrape serves (minus the core
/// profile collectors, which are process-wide and not part of the
/// event stream).
///
/// The fold fans out over `threads` workers (1 = inline, 0 = all
/// cores) via [`debruijn_net::metrics::replay_sharded`]; the output is
/// byte-identical for every thread count.
pub fn prom(trace: &Trace, threads: usize) -> String {
    debruijn_net::metrics::replay_sharded(threads, &trace.events).render()
}

/// Converts a trace to a Chrome trace-event JSON array (the format
/// `chrome://tracing` and Perfetto read), returning the writer.
///
/// Produces the same file as running `dbr simulate --chrome-trace`
/// live, since both feed the identical event stream to
/// [`ChromeTraceRecorder`].
///
/// # Errors
///
/// Returns the first write error.
pub fn export<W: io::Write>(trace: &Trace, out: W) -> io::Result<W> {
    let mut chrome = ChromeTraceRecorder::new(out);
    for event in &trace.events {
        chrome.record(event);
    }
    chrome.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use debruijn_core::Word;
    use debruijn_net::record::render_json;
    use debruijn_net::DropReason;

    fn w(d: u8, s: &str) -> Word {
        Word::parse(d, s).unwrap()
    }

    /// A tiny two-message stream: one delivered over one hop, one
    /// dropped.
    fn sample(d: u8, src: &str, dst: &str) -> Trace {
        let events = vec![
            NetEvent::Inject {
                time: 0,
                message: 0,
                source: w(d, src),
                destination: w(d, dst),
                route_len: 1,
                shortest: 1,
            },
            NetEvent::Inject {
                time: 0,
                message: 1,
                source: w(d, dst),
                destination: w(d, src),
                route_len: 1,
                shortest: 1,
            },
            NetEvent::Forward {
                time: 0,
                message: 0,
                hop: 0,
                from: w(d, src),
                to: w(d, dst),
                departs: 1,
                arrives: 3,
                queue_wait: 1,
                queue_depth: 0,
            },
            NetEvent::Deliver {
                time: 3,
                message: 0,
                hops: 1,
                latency: 3,
                shortest: 1,
            },
            NetEvent::Drop {
                time: 4,
                message: 1,
                reason: DropReason::NoRoute,
                at: w(d, dst),
                upstream: None,
            },
        ];
        Trace { d, events }
    }

    fn write_jsonl(trace: &Trace, name: &str) -> String {
        let path = std::env::temp_dir().join(format!("dbr-{name}-{}.jsonl", std::process::id()));
        let text: String = trace.events.iter().map(|e| render_json(e) + "\n").collect();
        std::fs::write(&path, text).unwrap();
        path.to_str().unwrap().to_string()
    }

    #[test]
    fn radix_inference_reads_addresses_not_field_names() {
        let t = sample(2, "0110", "1011");
        let text: String = t.events.iter().map(|e| render_json(e) + "\n").collect();
        assert_eq!(infer_radix(&text), 2);
        let t = sample(10, "0919", "9090");
        let text: String = t.events.iter().map(|e| render_json(e) + "\n").collect();
        assert_eq!(infer_radix(&text), 10);
        let t = sample(12, "11.0.3", "3.11.0");
        let text: String = t.events.iter().map(|e| render_json(e) + "\n").collect();
        assert_eq!(infer_radix(&text), 12);
        // Empty traces default to binary.
        assert_eq!(infer_radix(""), 2);
    }

    #[test]
    fn load_round_trips_and_reports_bad_lines() {
        let t = sample(2, "0110", "1011");
        let path = write_jsonl(&t, "load");
        let loaded = load(&path, None).unwrap();
        assert_eq!(loaded.d, 2);
        assert_eq!(loaded.events, t.events);
        std::fs::write(&path, "{\"type\":\"nonsense\"}\n").unwrap();
        let err = load(&path, None).unwrap_err();
        assert!(err.contains(":1:"), "{err}");
        std::fs::remove_file(&path).ok();
        assert!(load("/no/such/file.jsonl", None).is_err());
    }

    #[test]
    fn drop_breakdown_formats_reasons_in_order() {
        assert_eq!(drop_breakdown(&BTreeMap::new()), "0");
        let mut by_reason = BTreeMap::new();
        by_reason.insert("ttl", 2u64);
        by_reason.insert("dead-link", 3u64);
        // BTreeMap ordering: alphabetical by reason name.
        assert_eq!(drop_breakdown(&by_reason), "5 (dead-link 3, ttl 2)");
    }

    #[test]
    fn prom_renders_trace_counters_thread_count_invariantly() {
        let t = sample(2, "0110", "1011");
        let text = prom(&t, 1);
        assert!(text.contains("dbr_sim_injected_total 2"), "{text}");
        assert!(text.contains("dbr_sim_delivered_total 1"), "{text}");
        assert!(
            text.contains("dbr_sim_dropped_total{reason=\"no-route\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("dbr_link_forward_total{from=\"0110\",to=\"1011\"} 1"),
            "{text}"
        );
        for threads in [2, 4, 0] {
            assert_eq!(text, prom(&t, threads), "threads = {threads}");
        }
    }

    #[test]
    fn summary_reconstructs_counters_and_histograms() {
        let out = summary(&sample(2, "0110", "1011"));
        assert!(out.contains("events:       5 (radix 2)"), "{out}");
        assert!(out.contains("delivered:    1/2"), "{out}");
        assert!(out.contains("dropped:      1 (no-route 1)"), "{out}");
        assert!(out.contains("mean hops:    1.0000"), "{out}");
        assert!(out.contains("max latency:  3"), "{out}");
        assert!(out.contains("makespan:     4"), "{out}");
        assert!(out.contains("dropped (no-route): 1"), "{out}");
        assert!(out.contains("hops per delivered message"), "{out}");
    }

    #[test]
    fn links_ranks_by_forwards() {
        let out = links(&sample(2, "0110", "1011"), 10);
        assert!(out.contains("1 link(s) used over 4 ticks"), "{out}");
        assert!(out.contains("0110 -> 1011"), "{out}");
        // 2 busy ticks ([1, 3)) over a 4-tick makespan.
        assert!(out.contains("50.0%"), "{out}");
        // top = 0 keeps the header but no rows.
        let none = links(&sample(2, "0110", "1011"), 0);
        assert!(!none.contains("0110 -> 1011"), "{none}");
    }

    #[test]
    fn hist_selects_each_metric() {
        let t = sample(2, "0110", "1011");
        for name in METRIC_NAMES.split('|') {
            let metric = TraceMetric::parse(name).unwrap();
            assert_eq!(metric.name(), name);
            let out = hist(&t, metric);
            assert!(out.contains(name), "{out}");
            assert!(out.contains("mean"), "{out}");
        }
        assert!(TraceMetric::parse("hopss").is_err());
    }

    #[test]
    fn diff_reports_deltas_in_both_directions() {
        let a = sample(2, "0110", "1011");
        let mut b = sample(2, "0110", "1011");
        // Drop the drop: run B delivers everything it forwards.
        b.events.pop();
        let out = diff(&a, &b);
        assert!(out.contains("dropped"), "{out}");
        assert!(out.contains("-1"), "{out}");
        let reverse = diff(&b, &a);
        assert!(reverse.contains("+1"), "{reverse}");
        assert!(out.contains("mean hops"), "{out}");
        assert!(out.contains("+0.0000"), "{out}");
    }

    #[test]
    fn export_writes_a_chrome_trace_array() {
        let t = sample(2, "0110", "1011");
        let bytes = export(&t, Vec::new()).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("[\n{"), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert!(text.contains("\"thread_name\""), "{text}");
        assert!(text.contains("\"ph\":\"b\""), "{text}");
    }
}
