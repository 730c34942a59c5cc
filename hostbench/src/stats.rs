//! Order statistics over per-cell host timings.

/// The median of `xs` (sorted in place); the mean of the two middle
/// values when the count is even. `None` when empty.
pub fn median(xs: &mut [f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    })
}

/// Where the tail figure sits in `n` ascending samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailRank {
    /// Index of the tail sample in ascending order.
    pub index: usize,
    /// Share of samples at or below it, in percent.
    pub percentile: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest percentile of `n` samples that still has at least
/// `beyond` samples above it: the `beyond + 1`-th largest sample. `None`
/// when there are too few samples for any such rank.
pub fn tail_rank(n: usize, beyond: usize) -> Option<TailRank> {
    if n <= beyond {
        return None;
    }
    let index = n - beyond - 1;
    Some(TailRank {
        index,
        percentile: 100.0 * (index + 1) as f64 / n as f64,
        beyond,
    })
}

/// The tail sample of `xs` (sorted in place) with its rank.
pub fn tail(xs: &mut [f64], beyond: usize) -> Option<(f64, TailRank)> {
    let rank = tail_rank(xs.len(), beyond)?;
    xs.sort_by(f64::total_cmp);
    Some((xs[rank.index], rank))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_rank_keeps_ten_samples_beyond() {
        assert_eq!(tail_rank(10, 10), None);
        let r = tail_rank(11, 10).unwrap();
        assert_eq!((r.index, r.beyond), (0, 10));
        let r = tail_rank(200, 10).unwrap();
        assert_eq!(r.index, 189);
        assert_eq!(200 - r.index - 1, 10, "exactly ten samples beyond");
        assert!((r.percentile - 95.0).abs() < 1e-12);
        let r = tail_rank(1000, 10).unwrap();
        assert!((r.percentile - 99.0).abs() < 1e-9);
    }

    #[test]
    fn tail_picks_the_eleventh_largest() {
        let mut xs: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let (v, r) = tail(&mut xs, 10).unwrap();
        assert_eq!(v, 89.0);
        assert_eq!(r.index, 89);
        assert!(tail(&mut [1.0; 5], 10).is_none());
    }
}
