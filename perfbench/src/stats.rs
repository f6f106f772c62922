//! Order statistics used by every stage: nearest-rank percentiles over
//! raw samples, each reported with the sample count it came from.

/// A percentile read from `n` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub n: usize,
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`% of the samples at or below it (rank
/// `ceil(p/100 * n)`, 1-based). `None` for an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sorts `samples` and reads percentile `p`, carrying the sample count.
pub fn pct(samples: &[f64], p: f64) -> Pct {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Pct { value: nearest_rank(&sorted, p).unwrap_or(f64::NAN), n: sorted.len() }
}

/// The median (nearest-rank p50) of `samples`, `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 50.0).value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_values() {
        // n = 10: p50 -> rank 5, p90 -> rank 9, p95 -> rank ceil(9.5) = 10,
        // p99 -> rank 10, p10 -> rank 1, p0 -> clamped to rank 1.
        let xs: Vec<f64> = (1..=10).map(|v| f64::from(v) * 10.0).collect();
        assert_eq!(nearest_rank(&xs, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&xs, 90.0), Some(90.0));
        assert_eq!(nearest_rank(&xs, 95.0), Some(100.0));
        assert_eq!(nearest_rank(&xs, 99.0), Some(100.0));
        assert_eq!(nearest_rank(&xs, 10.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(10.0));
        assert_eq!(nearest_rank(&xs, 100.0), Some(100.0));
        // n = 5: p50 -> rank ceil(2.5) = 3; p99 -> rank 5.
        let ys = [3.0, 7.0, 8.0, 15.0, 20.0];
        assert_eq!(nearest_rank(&ys, 50.0), Some(8.0));
        assert_eq!(nearest_rank(&ys, 99.0), Some(20.0));
        // n = 1000: p99 -> rank 990, i.e. ten samples lie beyond it.
        let zs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(nearest_rank(&zs, 99.0), Some(990.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn pct_sorts_and_counts() {
        let p = pct(&[9.0, 1.0, 5.0, 3.0], 50.0);
        assert_eq!(p, Pct { value: 3.0, n: 4 });
        assert!(median(&[]).is_nan());
    }
}
