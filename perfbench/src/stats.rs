//! Order statistics and the metric list a run reports.

/// The `q`-quantile (0..=1) of `xs` by nearest rank; sorts in place.
pub fn quantile(xs: &mut [u32], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let i = ((xs.len() - 1) as f64 * q).round() as usize;
    let (_, v, _) = xs.select_nth_unstable(i);
    *v as f64
}

/// Median of floats (mean of the middle two for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.iter().copied().filter(|x| x.is_finite()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// One named, unit-carrying result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed beside the value (sample counts, tolerances).
    pub note: String,
}

#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.add_noted(name, value, unit, String::new());
    }

    pub fn add_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Latency samples (ns) of one op kind within one measured segment.
#[derive(Debug, Default, Clone)]
pub struct Samples(pub Vec<u32>);

impl Samples {
    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns.min(u32::MAX as u64) as u32);
    }

    /// `(p50, p99)` in µs, or NaN when empty.
    pub fn p50_p99_us(&mut self) -> (f64, f64) {
        let p50 = quantile(&mut self.0, 0.50) / 1000.0;
        let p99 = quantile(&mut self.0, 0.99) / 1000.0;
        (p50, p99)
    }
}

/// JSON string escaping for the few strings a result carries.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float as JSON (non-finite values become `null`).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let mut xs: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&mut xs, 0.5), 51.0);
        assert_eq!(quantile(&mut xs, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_helpers() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
