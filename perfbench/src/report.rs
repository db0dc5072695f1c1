//! The benchmark's output: human-readable lines, then one JSON line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one benchmark invocation reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (sim: cells run; serve: requests sent).
    pub attempted: u64,
    /// Operations that failed: a wrong output, a lost request or a
    /// non-200 final answer.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Context lines printed before the JSON (digests, sample counts).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one operation and whether it failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The run is correct when every operation succeeded.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The full stdout text: notes, one line per metric, then the JSON
    /// result as the last line.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<32} {} {}", m.name, json_number(m.value), m.unit);
        }
        let _ = writeln!(out, "attempted={} failed={}", self.attempted, self.failed);
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        json.push_str("}}");
        let _ = writeln!(out, "{json}");
        out
    }
}

/// A JSON number with every digit the value has. Non-finite values (an
/// infinite latency from a failed request) print as the largest finite
/// double, since JSON has no infinity.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v > 0.0 {
        format!("{}", f64::MAX)
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_json_result() {
        let mut o = Outcome::default();
        o.op(true);
        o.push("setup_s", 0.25, "s");
        o.note("digest=00".to_string());
        let text = o.render();
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.op(true);
        o.op(false);
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
    }
}
