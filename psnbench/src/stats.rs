//! Timing summaries: the median with its sample count, and a tail
//! percentile only where enough samples lie beyond it to make it a tail.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The nearest-rank `q`-quantile of `xs` (0 < q < 1), or `None` when fewer
/// than [`TAIL_SAMPLES`] samples lie above its rank.
pub fn tail(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let beyond = v.len() - rank;
    (beyond >= TAIL_SAMPLES).then(|| v[rank - 1])
}

/// A reported timing: median, sample count, and p99 when it is a tail.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub samples: usize,
    pub p99: Option<f64>,
}

pub fn summarize(xs: &[f64]) -> Summary {
    Summary { median: median(xs), samples: xs.len(), p99: tail(xs, 0.99) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), None, "999 samples leave only 9 above the p99 rank");
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.99), Some(990.0), "1000 samples leave 10 above rank 990");
        let s = summarize(&xs);
        assert_eq!(s.samples, 1000);
        assert_eq!(s.median, 500.5);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
