//! Output: named metrics with units, the human-readable lines and the
//! single JSON result line the benchmark ends with.

use crate::stats::Tally;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json` or the benchmark doc.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A human-readable metric line.
#[must_use]
pub fn human_line(metric: &Metric) -> String {
    format!("{:<34} {:>18} {}", metric.name, metric.value, metric.unit)
}

/// The final result line: `correct`, `attempted`, `failed` and the
/// metrics. Returns `None` if a value is not finite (JSON has no NaN).
#[must_use]
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> Option<String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return None;
        }
        body.push(format!(
            "{}: {{\"value\": {:?}, \"unit\": {}}}",
            json_str(&m.name),
            m.value,
            json_str(m.unit)
        ));
    }
    Some(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted(),
        tally.failed(),
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut tally = Tally::default();
        tally.ok(3);
        let line = result_line(
            true,
            tally.settle(true),
            &[
                Metric::new("latency_ms", 1.5, "ms"),
                Metric::new("n", 2.0, "count"),
            ],
        )
        .expect("finite values");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"n\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
    }

    #[test]
    fn non_finite_values_are_refused() {
        let tally = Tally::default();
        assert!(result_line(true, tally, &[Metric::new("x", f64::NAN, "ms")]).is_none());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
