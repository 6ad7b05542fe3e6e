//! Order statistics shared by every workload.

/// Percentile ladder searched by [`tail`], highest first.
const LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method).
/// Needs at least two samples; returns `None` otherwise.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// The `p`-th percentile of `xs` by nearest rank; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => 0.0,
        n => s[rank(p, n).min(n) - 1],
    }
}

/// The 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).max(1)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// A tail latency: the highest percentile of [`LADDER`] that leaves at
/// least [`TAIL_MIN_BEYOND`] samples above its nearest-rank position.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. 99.0.
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

impl Tail {
    /// `p99 (n=1234)`-style label.
    pub fn label(&self) -> String {
        format!("p{} (n={})", self.percentile, self.samples)
    }
}

/// The tail percentile of `xs` by the ten-samples-beyond rule. With fewer
/// than 20 samples no percentile qualifies and the median is reported.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    let p = LADDER
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0);
    Tail {
        percentile: p,
        value: percentile(xs, p),
        samples: n,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), Some((4.5, 7.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_p99_from_a_thousand_samples() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.label(), "p99 (n=1000)");
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_steps_down_when_p99_lacks_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 95.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let xs: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(tail(&xs).percentile, 99.99);
    }

    #[test]
    fn tail_falls_back_to_the_median_for_tiny_samples() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 3.0, 3));
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 10.0), 2.0);
        assert_eq!(percentile(&xs, 12.0), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 20.0);
        assert_eq!(percentile(&[7.0], 10.0), 7.0);
        assert_eq!(percentile(&[], 10.0), 0.0);
    }

    #[test]
    fn mean_is_plain_average() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
