//! Shared helpers for the benchmark and experiment binaries that
//! regenerate the paper's tables (E1–E11): deterministic input
//! generation and a median-of-batches wall-clock timer — plus the
//! [`experiments`] whose tables are pinned as data.

pub mod experiments;

use debruijn_core::rng::SplitMix64;
use debruijn_core::Word;

/// A deterministic random word of length `k` over `d` digits.
///
/// # Panics
///
/// Panics if `d < 2` or `k < 1`.
pub fn random_word(d: u8, k: usize, seed: u64) -> Word {
    let mut rng = SplitMix64::new(seed);
    let digits: Vec<u8> = (0..k).map(|_| rng.digit(d)).collect();
    Word::new(d, digits).expect("digits drawn below d")
}

/// A deterministic batch of random word pairs for timing sweeps.
pub fn random_pairs(d: u8, k: usize, count: usize, seed: u64) -> Vec<(Word, Word)> {
    (0..count)
        .map(|i| {
            (
                random_word(d, k, seed ^ (2 * i as u64 + 1)),
                random_word(d, k, seed ^ (2 * i as u64 + 2)),
            )
        })
        .collect()
}

/// Median wall-clock nanoseconds per call of `f`, over `reps` timed
/// batches of `batch` calls each. Used by the experiment benches, which
/// need raw numbers for slope fits rather than a full benchmark harness.
pub fn median_nanos_per_call<F: FnMut()>(mut f: F, batch: usize, reps: usize) -> f64 {
    assert!(batch > 0 && reps > 0);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    samples[samples.len() / 2]
}

/// Whether the binary was invoked with `--json` (machine-readable
/// one-line output instead of the human table). `ci.sh`/`bench.sh`
/// use this to assemble `BENCH_results.json`.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Accumulates `(series, size, value)` measurements and renders them
/// as one JSON line:
///
/// ```json
/// {"bench":"routing_algorithms","unit":"ns_per_route","results":
///  [{"series":"algorithm1","size":8,"value":154.2}, …]}
/// ```
///
/// No escaping is performed, so series/bench/unit names must stay
/// `[a-z0-9_]` — which they do, being Rust identifiers.
#[derive(Debug, Clone)]
pub struct JsonReport {
    bench: &'static str,
    unit: &'static str,
    fields: Vec<String>,
    entries: Vec<String>,
    skipped: Option<String>,
}

impl JsonReport {
    /// An empty report for one bench binary.
    pub fn new(bench: &'static str, unit: &'static str) -> Self {
        Self {
            bench,
            unit,
            fields: Vec::new(),
            entries: Vec::new(),
            skipped: None,
        }
    }

    /// Records a self-gate's reading as a top-level `"key":value` field
    /// beside the results, where `bench_check` does not read it. `key`
    /// shares the naming restriction of [`push`].
    ///
    /// [`push`]: JsonReport::push
    pub fn field(&mut self, key: &str, value: f64) {
        self.fields.push(format!("\"{key}\":{value:.2}"));
    }

    /// Records the median for one `(series, size)` cell.
    pub fn push(&mut self, series: &str, size: usize, value: f64) {
        self.entries.push(format!(
            "{{\"series\":\"{series}\",\"size\":{size},\"value\":{value:.1}}}"
        ));
    }

    /// Records that a self-gating check declined to run (e.g. a
    /// speedup floor on a host with too few cores), so the emitted
    /// JSON says *why* instead of silently omitting the verdict.
    /// The reason shares the no-escaping restriction of [`push`]:
    /// keep it to `[A-Za-z0-9 ().<_-]`.
    ///
    /// [`push`]: JsonReport::push
    pub fn skip(&mut self, reason: &str) {
        self.skipped = Some(reason.to_string());
    }

    /// The report as a single JSON line.
    pub fn render(&self) -> String {
        let skipped = match &self.skipped {
            Some(reason) => format!("\"skipped\":\"{reason}\","),
            None => String::new(),
        };
        let fields: String = self.fields.iter().map(|f| format!("{f},")).collect();
        format!(
            "{{\"bench\":\"{}\",\"unit\":\"{}\",{}{}\"results\":[{}]}}",
            self.bench,
            self.unit,
            fields,
            skipped,
            self.entries.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_renders_a_flat_object() {
        let mut r = JsonReport::new("demo", "ns_per_call");
        r.push("fast", 8, 12.34);
        r.push("slow", 32, 5678.9);
        let line = r.render();
        assert_eq!(
            line,
            "{\"bench\":\"demo\",\"unit\":\"ns_per_call\",\"results\":[\
             {\"series\":\"fast\",\"size\":8,\"value\":12.3},\
             {\"series\":\"slow\",\"size\":32,\"value\":5678.9}]}"
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn json_report_records_an_explicit_skip() {
        let mut r = JsonReport::new("demo", "ns_per_call");
        r.push("fast", 8, 12.34);
        r.skip("4-thread floor skipped: only 2 core(s)");
        assert_eq!(
            r.render(),
            "{\"bench\":\"demo\",\"unit\":\"ns_per_call\",\
             \"skipped\":\"4-thread floor skipped: only 2 core(s)\",\
             \"results\":[{\"series\":\"fast\",\"size\":8,\"value\":12.3}]}"
        );
    }

    #[test]
    fn json_report_renders_fields_before_the_results() {
        let mut r = JsonReport::new("demo", "ns_per_call");
        r.push("fast", 8, 12.34);
        r.field("overhead_pct", 0.456);
        assert_eq!(
            r.render(),
            "{\"bench\":\"demo\",\"unit\":\"ns_per_call\",\"overhead_pct\":0.46,\
             \"results\":[{\"series\":\"fast\",\"size\":8,\"value\":12.3}]}"
        );
    }

    #[test]
    fn random_word_is_deterministic() {
        assert_eq!(random_word(3, 10, 5), random_word(3, 10, 5));
        assert_ne!(random_word(3, 10, 5), random_word(3, 10, 6));
    }

    #[test]
    fn random_pairs_have_requested_shape() {
        let pairs = random_pairs(2, 8, 5, 1);
        assert_eq!(pairs.len(), 5);
        for (x, y) in &pairs {
            assert_eq!(x.len(), 8);
            assert_eq!(y.len(), 8);
        }
    }

    #[test]
    fn median_timer_returns_positive() {
        let t = median_nanos_per_call(
            || {
                std::hint::black_box(1 + 1);
            },
            100,
            5,
        );
        assert!(t >= 0.0);
    }
}
