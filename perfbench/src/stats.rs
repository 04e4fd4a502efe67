//! Exact-sample statistics. Every percentile comes from the sorted raw
//! samples (nearest rank), never from a bucketed sketch, so a reported
//! time is a time that was measured.

/// Percentiles a tail may be reported at, highest first.
pub const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];

/// A set of raw measurements.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

/// A tail percentile chosen by the ten-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, as a fraction (0.99 for p99).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Record one measurement.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Record every measurement of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// No measurements yet.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sum of all measurements.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank quantile: the smallest sample with at least `q` of
    /// the set at or below it (0 for an empty set).
    pub fn quantile(&self, q: f64) -> f64 {
        let sorted = self.sorted();
        match rank(sorted.len(), q) {
            Some(r) => sorted[r - 1],
            None => 0.0,
        }
    }

    /// The median (nearest rank).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The highest percentile in [`LADDER`], no higher than `cap`, that
    /// has at least ten samples beyond it. Falls back to the median
    /// (with its true `beyond` count) when the set is too small.
    pub fn tail(&self, cap: f64) -> Tail {
        let sorted = self.sorted();
        let n = sorted.len();
        let at = |pct: f64| {
            let r = rank(n, pct).unwrap_or(1);
            Tail {
                pct,
                value: sorted.get(r - 1).copied().unwrap_or(0.0),
                beyond: n.saturating_sub(r),
            }
        };
        LADDER
            .iter()
            .filter(|&&p| p <= cap)
            .map(|&p| at(p))
            .find(|t| t.beyond >= 10)
            .unwrap_or_else(|| at(0.5))
    }
}

/// 1-based nearest rank of quantile `q` in `n` samples.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::new();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let s = of((1..=100).map(f64::from));
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(of([]).median(), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples support p99 (10 beyond) but not p99.9 (1 beyond).
        let t = of((1..=1000).map(f64::from)).tail(0.999);
        assert_eq!((t.pct, t.value, t.beyond), (0.99, 990.0, 10));
        // 200 samples: p95 has exactly 10 beyond.
        let t = of((1..=200).map(f64::from)).tail(0.999);
        assert_eq!((t.pct, t.beyond), (0.95, 10));
        // The cap wins even when more samples would allow a higher one.
        assert_eq!(of((1..=1000).map(f64::from)).tail(0.9).pct, 0.9);
        // Too few samples: the median, flagged by its beyond count.
        let t = of([1.0, 2.0, 3.0]).tail(0.99);
        assert_eq!((t.pct, t.value, t.beyond), (0.5, 2.0, 1));
    }
}
