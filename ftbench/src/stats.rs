//! Sample sets and the metric table the run prints.

use std::fmt::Write;

/// Nearest-rank percentile of an unsorted sample set; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median of an unsorted sample set (the mean of the middle pair for an
/// even count); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) { (v[mid - 1] + v[mid]) / 2.0 } else { v[mid] })
}

/// One reported metric: value, unit, and how many samples it summarizes.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics of one run, in the order they were recorded.
#[derive(Default)]
pub struct Table {
    pub metrics: Vec<Metric>,
    /// Metrics the run could not compute (no samples); they make the run
    /// fail rather than print a made-up value.
    pub missing: Vec<String>,
}

impl Table {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    /// Record `value`, or note the metric as missing when it is `None`.
    pub fn put_opt(&mut self, name: &str, value: Option<f64>, unit: &'static str, samples: usize) {
        match value {
            Some(v) if v.is_finite() => self.put(name, v, unit, samples),
            _ => self.missing.push(name.to_string()),
        }
    }

    /// `"name": {"value": v, "unit": u}` pairs for the result line.
    pub fn json_fields(&self) -> String {
        let mut out = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
            .expect("String write");
        }
        out
    }
}

/// A finite f64 as JSON, with every digit Rust's shortest round-trip
/// rendering gives.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
