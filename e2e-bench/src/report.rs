//! The result of one benchmark run: metrics, operation counts and the
//! human-readable lines printed above the final JSON object.

use crate::pipeline::Check;

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    lines: Vec<String>,
}

impl Report {
    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds a line to the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Counts `ops` operations, `failed` of which failed.
    pub fn ops(&mut self, ops: u64, failed: u64) {
        self.attempted += ops;
        self.failed += failed;
    }

    /// Counts a correctness check as one operation.
    pub fn check(&mut self, what: &str, check: Check) {
        match check {
            Ok(()) => {
                self.ops(1, 0);
                self.note(format!("check ok: {what}"));
            }
            Err(why) => {
                self.ops(1, 1);
                self.note(format!("CHECK FAILED: {what}: {why}"));
            }
        }
    }

    /// Whether every operation succeeded and every metric is a finite
    /// number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The human-readable lines, then the metric table, then the JSON
    /// result object as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        for m in &self.metrics {
            out.push_str(&format!("{:<32} {:>16.6} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "ops attempted {} failed {}\n",
            self.attempted, self.failed
        ));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; `correct` is false then.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}
