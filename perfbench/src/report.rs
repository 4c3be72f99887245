//! The result of one run: checks, counts and named metrics, printed as a
//! human-readable table followed by the one-line JSON result.

use std::fmt::Write as _;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug, Default)]
pub struct Report {
    /// Operations the run attempted (requests, batch lines, messages).
    pub attempted: u64,
    /// Attempted operations that failed: non-200 responses, body
    /// mismatches, wrong batch lines, undelivered messages.
    pub failed: u64,
    /// Failed checks and shape violations, one line each.
    pub problems: Vec<String>,
    /// Context lines printed above the metrics.
    pub notes: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The single-line JSON result the benchmark ends its output with.
    pub fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to string");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }

    /// Prints the notes, problems and metric table, then the JSON line.
    pub fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for problem in &self.problems {
            println!("CHECK FAILED: {problem}");
            eprintln!("CHECK FAILED: {problem}");
        }
        println!(
            "attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for m in &self.metrics {
            println!("  {:<32} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }
}
