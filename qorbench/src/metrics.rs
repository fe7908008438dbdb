//! The run's outcome: operation counts, failures and named metrics, and
//! the one-line JSON result the benchmark prints last.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit (`s`, `count`, `MB`, `ratio`).
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (one design through one pass).
    pub attempted: u64,
    /// Operations with at least one failure.
    pub failed: u64,
    /// Failure descriptions, one per failed check.
    pub failures: Vec<String>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable log lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a log line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Counts one operation of `design` in pass `pass`, failed when
    /// `failures` is non-empty.
    pub fn count(&mut self, design: &str, pass: usize, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            for f in failures {
                self.failures.push(format!("{design} (pass {pass}): {f}"));
            }
        }
    }

    /// Ends the run early: a set-up failure counts as one failed
    /// operation.
    pub fn abort(mut self, reason: String) -> Outcome {
        self.count("setup", 0, &[reason]);
        self
    }

    /// True when every attempted operation passed its checks.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics
    /// named in `names`, each with its value and unit.
    pub fn to_json(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|&name| self.metrics.iter().find(|m| m.name == name))
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number (non-finite values are written as 0).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}
