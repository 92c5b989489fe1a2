//! The run's result: output checks, operation counts and named metrics,
//! printed as one JSON object on the last line of standard output.

use std::fmt::Write as _;
use std::process::ExitCode;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    failures: Vec<String>,
    /// Client operations attempted.
    pub attempted: u64,
    /// Client operations that did not commit (deadlock retries, fenced or
    /// otherwise refused attempts).
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable tables printed before the JSON line.
    pub text: String,
}

impl Report {
    /// Records an output check; a failed check fails the run.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(format!("{name}: {}", detail()));
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if !value.is_finite() {
            self.failures
                .push(format!("metric {name} is not a finite number ({value})"));
        }
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints the tables, the failed checks (to standard error) and the
    /// JSON result line; the exit code is non-zero iff a check failed.
    pub fn print(self) -> ExitCode {
        print!("{}", self.text);
        for failure in &self.failures {
            eprintln!("perfbench: check failed: {failure}");
        }
        let correct = self.failures.is_empty();
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile (nearest rank) of `sorted`, which must be sorted.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1] as f64
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
