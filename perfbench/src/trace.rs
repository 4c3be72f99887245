//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start and an end, the span that caused it and
//! the id of the request, chunk or run it belongs to. Spans stay in
//! memory during the run and are written out as JSON lines when it ends.
//! A layer's self time is its span's duration minus its child spans.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer. Buffers of several threads share an epoch
/// and are merged when the threads are joined.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, id: u64, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end_ns = self.now();
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// Records a span measured elsewhere (e.g. a client's request).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// `(count, total ns)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.dur_ns()))
    }

    /// Mean duration of the spans named `name`, in ns.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (n, total) = self.total(name);
        total as f64 / n.max(1) as f64
    }

    /// Per-name `(count, total ns, self ns)`, self time being each
    /// span's duration minus the durations of its children.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(children);
        }
        out
    }

    /// Writes the spans as JSON lines, at most `per_name` of each name
    /// (a traced service phase records hundreds of thousands of request
    /// spans); returns how many were left out.
    pub fn write_jsonl(&self, path: &Path, per_name: usize) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let mut written: BTreeMap<&str, usize> = BTreeMap::new();
        let mut skipped = 0;
        for (i, s) in self.spans.iter().enumerate() {
            let n = written.entry(s.name).or_insert(0);
            if *n == per_name {
                skipped += 1;
                continue;
            }
            *n += 1;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()?;
        Ok(skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let parent = t.open("parent", 0, None);
        t.time("child", 0, Some(parent), || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(parent);
        let times = t.self_times();
        let (n, total, own) = times["parent"];
        assert_eq!(n, 1);
        assert_eq!(total - own, times["child"].1);
        let mut other = Tracer::new(t.epoch());
        let p = other.open("p2", 1, None);
        other.time("c2", 1, Some(p), || ());
        other.close(p);
        t.merge(other);
        assert_eq!(t.spans[3].parent, Some(2));
    }
}
