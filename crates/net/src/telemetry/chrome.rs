//! Chrome trace-event export: inspect a run in Perfetto.
//!
//! Emits the [trace-event JSON array format] consumed by
//! `chrome://tracing` and <https://ui.perfetto.dev>: one *thread*
//! track per network node, a complete (`"X"`) span on the sending
//! node's track for every queue wait and every link transit, and a
//! nestable async (`"b"`/`"e"`) span per message covering its whole
//! inject→deliver/drop lifetime. Simulator ticks map 1:1 to
//! microseconds, the format's base unit. The engine profile's shard
//! lanes ([`EngineProfile::chrome_trace`](crate::EngineProfile::chrome_trace))
//! go through the same writer.
//!
//! [trace-event JSON array format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! Addresses are digit strings (optionally dot-separated), so no JSON
//! string escaping is ever needed.

use std::collections::HashMap;
use std::io;

use crate::record::{NetEvent, Recorder};

/// Streams [`NetEvent`]s as a Chrome trace-event JSON array.
///
/// Drive it live (`dbr simulate --chrome-trace FILE`) or offline from
/// a JSONL trace (`dbr trace export IN OUT`); both produce the same
/// file for the same run. Write errors are sticky: recording stops at
/// the first failure and [`ChromeTraceRecorder::finish`] reports it.
///
/// # Examples
///
/// ```
/// use debruijn_core::DeBruijn;
/// use debruijn_net::telemetry::ChromeTraceRecorder;
/// use debruijn_net::{workload, ShardedSimulation, SimConfig};
///
/// let space = DeBruijn::new(2, 4)?;
/// let sim = ShardedSimulation::new(space, SimConfig::default(), 1)?;
/// let traffic = workload::uniform_random(space, 20, 1);
/// let mut chrome = ChromeTraceRecorder::new(Vec::new());
/// sim.run_recorded(&traffic, &mut chrome);
/// let json = String::from_utf8(chrome.finish()?)?;
/// assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
/// assert!(json.contains("\"thread_name\""));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ChromeTraceRecorder<W: io::Write> {
    out: W,
    error: Option<io::Error>,
    wrote_any: bool,
    /// Compact sequential track id per node rank.
    tids: HashMap<u128, u64>,
    /// Lifetime-span label per live message (`"src -> dst"`).
    labels: HashMap<usize, String>,
    events: u64,
}

impl<W: io::Write> ChromeTraceRecorder<W> {
    /// Wraps a writer. Consider a `BufWriter` for file sinks.
    pub fn new(out: W) -> Self {
        Self {
            out,
            error: None,
            wrote_any: false,
            tids: HashMap::new(),
            labels: HashMap::new(),
            events: 0,
        }
    }

    /// Trace records emitted so far (spans + metadata).
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Terminates the JSON array, flushes, and returns the writer, or
    /// the first write error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !self.wrote_any {
            self.out.write_all(b"[")?;
        }
        self.out.write_all(b"\n]\n")?;
        self.out.flush()?;
        Ok(self.out)
    }

    /// Appends one trace record (a JSON object) to the array.
    pub(crate) fn emit(&mut self, record: &str) {
        if self.error.is_some() {
            return;
        }
        let lead: &[u8] = if self.wrote_any { b",\n" } else { b"[\n" };
        self.wrote_any = true;
        self.events += 1;
        if let Err(e) = self
            .out
            .write_all(lead)
            .and_then(|()| self.out.write_all(record.as_bytes()))
        {
            self.error = Some(e);
        }
    }

    /// Track id for a node, emitting its `thread_name` metadata record
    /// on first sight.
    fn tid(&mut self, word: &debruijn_core::Word) -> u64 {
        let rank = word.rank();
        if let Some(&tid) = self.tids.get(&rank) {
            return tid;
        }
        let tid = self.tids.len() as u64;
        self.tids.insert(rank, tid);
        self.track_name(tid, &format!("node {word}"));
        tid
    }

    /// Names track `tid` with a `thread_name` metadata record.
    pub(crate) fn track_name(&mut self, tid: u64, name: &str) {
        self.emit(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
}

impl<W: io::Write> Recorder for ChromeTraceRecorder<W> {
    fn enabled(&self) -> bool {
        self.error.is_none()
    }

    fn record(&mut self, event: &NetEvent) {
        if self.error.is_some() {
            return;
        }
        match event {
            NetEvent::Inject {
                time,
                message,
                source,
                destination,
                route_len,
                shortest,
            } => {
                let tid = self.tid(source);
                let label = format!("{source} -> {destination}");
                self.emit(&format!(
                    "{{\"name\":\"msg {message} {label}\",\"cat\":\"message\",\"ph\":\"b\",\
                     \"id\":{message},\"ts\":{time},\"pid\":0,\"tid\":{tid},\
                     \"args\":{{\"route_len\":{route_len},\"shortest\":{shortest}}}}}"
                ));
                self.labels.insert(*message, label);
            }
            NetEvent::WildcardResolved {
                time,
                message,
                at,
                digit,
                policy,
                ..
            } => {
                let tid = self.tid(at);
                self.emit(&format!(
                    "{{\"name\":\"wildcard\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{time},\
                     \"pid\":0,\"tid\":{tid},\
                     \"args\":{{\"message\":{message},\"digit\":{digit},\"policy\":\"{}\"}}}}",
                    policy.name()
                ));
            }
            NetEvent::Forward {
                time,
                message,
                hop,
                from,
                to,
                departs,
                arrives,
                queue_wait,
                ..
            } => {
                let tid = self.tid(from);
                if queue_wait > &0 {
                    self.emit(&format!(
                        "{{\"name\":\"queue\",\"cat\":\"hop\",\"ph\":\"X\",\"ts\":{time},\
                         \"dur\":{queue_wait},\"pid\":0,\"tid\":{tid},\
                         \"args\":{{\"message\":{message},\"hop\":{hop}}}}}"
                    ));
                }
                self.emit(&format!(
                    "{{\"name\":\"transit\",\"cat\":\"hop\",\"ph\":\"X\",\"ts\":{departs},\
                     \"dur\":{},\"pid\":0,\"tid\":{tid},\
                     \"args\":{{\"message\":{message},\"hop\":{hop},\"to\":\"{to}\"}}}}",
                    arrives.saturating_sub(*departs)
                ));
            }
            NetEvent::Reroute { time, message, at } => {
                let tid = self.tid(at);
                self.emit(&format!(
                    "{{\"name\":\"reroute\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{time},\
                     \"pid\":0,\"tid\":{tid},\"args\":{{\"message\":{message}}}}}"
                ));
            }
            NetEvent::Deliver {
                time,
                message,
                hops,
                latency,
                ..
            } => {
                let label = self.labels.remove(message).unwrap_or_default();
                self.emit(&format!(
                    "{{\"name\":\"msg {message} {label}\",\"cat\":\"message\",\"ph\":\"e\",\
                     \"id\":{message},\"ts\":{time},\"pid\":0,\"tid\":0,\
                     \"args\":{{\"hops\":{hops},\"latency\":{latency}}}}}"
                ));
            }
            NetEvent::Drop {
                time,
                message,
                reason,
                ..
            } => {
                let label = self.labels.remove(message).unwrap_or_default();
                self.emit(&format!(
                    "{{\"name\":\"msg {message} {label}\",\"cat\":\"message\",\"ph\":\"e\",\
                     \"id\":{message},\"ts\":{time},\"pid\":0,\"tid\":0,\
                     \"args\":{{\"dropped\":\"{}\"}}}}",
                    reason.name()
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::DropReason;
    use debruijn_core::Word;

    fn w(s: &str) -> Word {
        Word::parse(2, s).unwrap()
    }

    #[test]
    fn produces_a_json_array_with_tracks_and_spans() {
        let mut c = ChromeTraceRecorder::new(Vec::new());
        c.record(&NetEvent::Inject {
            time: 0,
            message: 0,
            source: w("0110"),
            destination: w("1011"),
            route_len: 1,
            shortest: 1,
        });
        c.record(&NetEvent::Forward {
            time: 0,
            message: 0,
            hop: 0,
            from: w("0110"),
            to: w("1011"),
            departs: 2,
            arrives: 4,
            queue_wait: 2,
            queue_depth: 1,
        });
        c.record(&NetEvent::Deliver {
            time: 4,
            message: 0,
            hops: 1,
            latency: 4,
            shortest: 1,
        });
        c.record(&NetEvent::Drop {
            time: 9,
            message: 1,
            reason: DropReason::NoRoute,
            at: w("1011"),
            upstream: Some(w("0110")),
        });
        let n = c.events_written();
        let text = String::from_utf8(c.finish().unwrap()).unwrap();
        // thread_name metadata for the source node, async b/e pair,
        // queue + transit X spans, drop end.
        assert!(n >= 6, "{n}: {text}");
        assert!(text.starts_with("[\n{"), "{text}");
        assert!(text.trim_end().ends_with(']'), "{text}");
        assert!(text.contains("\"name\":\"node 0110\""), "{text}");
        assert!(text.contains("\"ph\":\"b\""), "{text}");
        assert!(text.contains("\"ph\":\"e\""), "{text}");
        assert!(text.contains("\"name\":\"queue\""), "{text}");
        assert!(
            text.contains("\"name\":\"transit\",\"cat\":\"hop\",\"ph\":\"X\",\"ts\":2,\"dur\":2"),
            "{text}"
        );
        assert!(text.contains("\"dropped\":\"no-route\""), "{text}");
        // Balanced braces and brackets (cheap well-formedness check).
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn empty_trace_is_still_a_valid_array() {
        let c = ChromeTraceRecorder::new(Vec::new());
        let text = String::from_utf8(c.finish().unwrap()).unwrap();
        assert_eq!(text, "[\n]\n");
    }

    #[test]
    fn sticky_write_errors_disable_the_sink() {
        struct Failing;
        impl io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut c = ChromeTraceRecorder::new(Failing);
        assert!(c.enabled());
        c.record(&NetEvent::Drop {
            time: 0,
            message: 0,
            reason: DropReason::NoRoute,
            at: Word::parse(2, "0110").unwrap(),
            upstream: None,
        });
        assert!(!c.enabled());
        assert!(c.finish().is_err());
    }
}
