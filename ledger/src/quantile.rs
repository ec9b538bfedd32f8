//! Exact order statistics on raw samples, and the slice-median
//! estimator every reported latency goes through.
//!
//! `lwsnap_trace::Histogram` buckets step by ~25 %, coarser than any
//! bound the ledger enforces, so nothing here is bucketed: a quantile is
//! an element of the sample.
//!
//! **Slice-median estimator.** The window's samples (in completion
//! order) are cut into [`SLICES`] consecutive equal-count slices; each
//! slice's exact quantile is taken and the median of those is reported.
//! A noisy-neighbour burst spoils one slice, not the metric.

/// Number of consecutive slices the estimator cuts a window into.
pub const SLICES: usize = 10;

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// The exact `q`-quantile of an ascending slice by nearest rank: the
/// smallest element with at least `q·n` elements at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn exact(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank of the `q`-quantile among `n ≥ 1` samples.
/// The epsilon keeps a product like `0.999 × 10000`, which floating
/// point lands a hair above the integer, from rounding up a whole rank.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Median of a float sample (mean of the middle pair when even).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The slice-median estimate of the `q`-quantile of `samples` (given in
/// completion order). With fewer than [`SLICES`] samples it degrades to
/// the exact quantile of the whole sample; `None` when empty.
pub fn slice_median(samples: &[u64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let slices = SLICES.min(samples.len());
    let per_slice: Vec<f64> = (0..slices)
        .map(|i| {
            let lo = i * samples.len() / slices;
            let hi = (i + 1) * samples.len() / slices;
            let mut slice = samples[lo..hi].to_vec();
            slice.sort_unstable();
            exact(&slice, q) as f64
        })
        .collect();
    Some(median(&per_slice))
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of the standard percentiles (p50, p90, p99, p99.9) that
/// still has [`MIN_BEYOND`] samples beyond it in every slice of an
/// `n`-sample window — the highest the ledger may print for it.
pub fn highest_supported(n: usize) -> Option<f64> {
    let per_slice = n / SLICES;
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&q| beyond(per_slice, q) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The sorted-vector oracle for the `num/den`-quantile: count
    /// elements, in integers, with no arithmetic on ranks.
    fn oracle(samples: &[u64], num: usize, den: usize) -> u64 {
        let mut v = samples.to_vec();
        v.sort_unstable();
        *v.iter()
            .find(|&&x| v.iter().filter(|&&y| y <= x).count() * den >= num * v.len())
            .unwrap()
    }

    #[test]
    fn exact_matches_the_oracle_on_random_samples() {
        let mut rng = Rng::new(3);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000] {
            let samples: Vec<u64> = (0..n).map(|_| rng.below(50)).collect();
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            for (num, den) in [(1, 100), (1, 2), (9, 10), (99, 100), (999, 1000), (1, 1)] {
                let q = num as f64 / den as f64;
                assert_eq!(exact(&sorted, q), oracle(&samples, num, den), "n={n} q={q}");
            }
        }
    }

    #[test]
    fn exact_is_an_element_not_an_interpolation() {
        assert_eq!(exact(&[1, 2, 3, 1000], 0.5), 2);
        assert_eq!(exact(&[1, 2, 3, 1000], 0.75), 3);
        assert_eq!(exact(&[1, 2, 3, 1000], 0.76), 1000);
    }

    #[test]
    fn slice_median_is_the_median_of_per_slice_oracles() {
        let mut rng = Rng::new(5);
        let samples: Vec<u64> = (0..2000).map(|_| 100 + rng.below(900)).collect();
        let want: Vec<f64> = samples
            .chunks(200)
            .map(|c| oracle(c, 99, 100) as f64)
            .collect();
        assert_eq!(slice_median(&samples, 0.99), Some(median(&want)));
    }

    #[test]
    fn one_spoiled_slice_does_not_move_the_estimate() {
        let mut samples = vec![100u64; 10_000];
        let clean = slice_median(&samples, 0.99).unwrap();
        // A burst: every sample of the fourth slice is 50x slower.
        for s in &mut samples[3000..4000] {
            *s = 5000;
        }
        assert_eq!(slice_median(&samples, 0.99).unwrap(), clean);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        assert_eq!(exact(&sorted, 0.99), 5000, "the plain p99 is spoiled");
    }

    #[test]
    fn small_samples_degrade_gracefully() {
        assert_eq!(slice_median(&[], 0.5), None);
        assert_eq!(slice_median(&[7], 0.99), Some(7.0));
        assert_eq!(slice_median(&[1, 2, 3], 0.5), Some(2.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples has exactly 10 beyond it; of 999, only 9.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(highest_supported(10 * 1000), Some(0.99));
        assert_eq!(highest_supported(10 * 999), Some(0.9));
        assert_eq!(highest_supported(10 * 10_000), Some(0.999));
        assert_eq!(highest_supported(10 * 20), Some(0.5));
        assert_eq!(highest_supported(10 * 19), None);
    }
}
