//! Percentiles, named metrics, and the result line.

use std::fmt::Write as _;

/// One reported number with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// `[A-Za-z0-9_.-]+`, unique within a run.
    pub name: String,
    /// The value as measured, all digits kept.
    pub value: f64,
    /// `ms`, `s`, `1/s`, `count`, `ratio`, …
    pub unit: &'static str,
}

/// An ordered metric list that refuses malformed or duplicate names.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    ///
    /// # Panics
    ///
    /// Panics on a malformed or repeated name, or an empty unit — a
    /// benchmark bug, never a property of the program measured.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(valid_name(&name), "malformed metric name {name:?}");
        assert!(!unit.is_empty(), "metric {name} has no unit");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric { name, value, unit });
    }

    /// The metric called `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Every metric, in report order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// `true` for a name of 1–64 characters from `[A-Za-z0-9_.-]`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The value at percentile `p` (0–100) of ascending `sorted`: the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The 1-based rank of percentile `p` among `n` samples, immune to the
/// float error of products like `0.999 * 20000`.
fn rank(p: f64, n: usize) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil() as usize
}

/// The median of `values` (any order); `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it in ascending `sorted`, and its value.  The choice depends only
/// on the sample count, which a workload fixes, so every run of a workload
/// reports the same percentile.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let p = TAIL_LADDER.iter().copied().find(|&p| n >= rank(p, n) + 10).unwrap_or(50.0);
    (p, percentile(sorted, p))
}

/// `num / den`, or `0` for an empty base.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = &'a Metric>,
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, metric) in metrics.enumerate() {
        if index > 0 {
            line.push_str(", ");
        }
        let value = if metric.value.is_finite() { metric.value } else { 0.0 };
        let _ = write!(
            line,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    line.push_str("}}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&sorted), (99.0, 990.0));
        let sorted: Vec<f64> = (1..=20_000).map(f64::from).collect();
        assert_eq!(tail(&sorted), (99.9, 19_980.0));
        let sorted: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&sorted).0, 75.0);
    }

    #[test]
    fn percentiles_and_medians() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("session.check_hit_us"));
        assert!(valid_name("latency_p50_ms"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn duplicate_metrics_are_refused() {
        let mut metrics = Metrics::default();
        metrics.push("a", 1.0, "s");
        metrics.push("a", 2.0, "s");
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let mut metrics = Metrics::default();
        metrics.push("setup_s", 0.25, "s");
        metrics.push("latency_p50_ms", 1.5, "ms");
        let line = result_line(true, 10, 0, metrics.iter());
        let parsed = ilogic_core::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("attempted").and_then(ilogic_core::json::Json::as_int), Some(10));
        assert!(!line.contains('\n'));
    }
}
