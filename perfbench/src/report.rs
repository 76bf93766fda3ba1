//! Collected metrics of one workload run, and its one-line JSON result.

use std::fmt::Write;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing, when it summarises a distribution.
    pub samples: Option<usize>,
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (timed requests plus post-recovery checks).
    pub attempted: usize,
    /// One line per failed, refused, lost or wrongly answered operation,
    /// and per failed durability or trace check.
    pub failures: Vec<String>,
    /// Why the run cannot be reported (the generator fell behind, or a
    /// percentile lacks samples). An invalid run prints no result.
    pub invalid: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: Option<usize>) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    pub fn error_rate(&self) -> f64 {
        self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines: every metric by name and unit, timings with
    /// their sample counts.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "  {:<44} {:>14.6} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, "  (n={n})");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "  {:<44} {:>14.6} ratio  ({} of {} operations)",
            "error_rate",
            self.error_rate(),
            self.failures.len(),
            self.attempted
        );
        out
    }

    /// The result line: `names` (in that order) under `metrics`.
    pub fn json(&self, names: &[&str]) -> Result<String, String> {
        let mut m = String::new();
        for (i, name) in names.iter().enumerate() {
            let metric = self
                .metrics
                .iter()
                .find(|x| x.name == *name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !metric.value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.value, metric.unit
            );
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len()
        ))
    }
}
