//! Order statistics for timing samples.

/// Percentiles a tail is reported at, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples, in integer
/// thousandths so that 99.9% of 10 000 is exactly rank 9990.
fn nearest_rank(p: f64, n: usize) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// A tail percentile and the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported.
    pub pct: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples it was taken from.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`MIN_BEYOND`] samples beyond its nearest rank, or `None` when even the
/// median has fewer (under 20 samples).
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let pct = TAIL_LADDER
        .into_iter()
        .find(|&p| n >= MIN_BEYOND && n - nearest_rank(p, n) >= MIN_BEYOND)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        pct,
        value: v[nearest_rank(pct, n) - 1],
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, 10 beyond; p99.9 would have 1.
        let t = tail(&ramp(1000)).expect("1000 samples have a tail");
        assert_eq!((t.pct, t.value, t.samples), (99.0, 990.0, 1000));
        // 999 samples: p99 is rank 990 (ceil 989.01), 9 beyond; p95 is
        // rank 950, 49 beyond.
        let t = tail(&ramp(999)).expect("999 samples have a tail");
        assert_eq!((t.pct, t.value), (95.0, 950.0));
        // 10 000 samples reach p99.9 (rank 9990, 10 beyond).
        let t = tail(&ramp(10_000)).expect("10k samples have a tail");
        assert_eq!((t.pct, t.value), (99.9, 9990.0));
        // 200 samples: p95 is rank 190, exactly 10 beyond.
        assert_eq!(tail(&ramp(200)).map(|t| t.pct), Some(95.0));
        // 20 samples: only the median (rank 10, 10 beyond) qualifies.
        let t = tail(&ramp(20)).expect("20 samples have a median");
        assert_eq!((t.pct, t.value, t.samples), (50.0, 10.0, 20));
    }

    #[test]
    fn too_few_samples_have_no_tail() {
        assert_eq!(tail(&ramp(19)), None);
        assert_eq!(tail(&[]), None);
    }
}
