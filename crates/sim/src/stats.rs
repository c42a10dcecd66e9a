//! Summary statistics for latency samples and overhead reporting.

/// A collection of latency samples with percentile queries.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples::default()
    }

    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (q in \[0, 1\]) using nearest-rank interpolation.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set or `q` outside \[0, 1\].
    pub fn percentile(&mut self, q: f64) -> f64 {
        assert!(!self.values.is_empty(), "percentile of empty sample set");
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        self.ensure_sorted();
        let idx = ((self.values.len() as f64 - 1.0) * q).round() as usize;
        self.values[idx]
    }

    /// Fraction of samples ≤ `threshold`.
    pub fn fraction_within(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.iter().filter(|&&v| v <= threshold).count();
        n as f64 / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 100.0);
        let p99 = s.percentile(0.99);
        assert!((99.0..=100.0).contains(&p99));
    }

    #[test]
    fn fraction_within_counts() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.fraction_within(2.5), 0.5);
        assert_eq!(s.fraction_within(0.0), 0.0);
        assert_eq!(s.fraction_within(100.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "percentile of empty sample set")]
    fn empty_percentile_panics() {
        Samples::new().percentile(0.5);
    }
}
