//! Sample statistics: medians, means and the tail percentile rule.

/// The median of `samples` (mean of the middle pair for even counts);
/// `NaN` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// The arithmetic mean; `NaN` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The percentiles a tail may be reported at, in tenths of a percent,
/// highest last. The ladder stops at p90: a higher percentile of a 20 s
/// run rests on a sliver of its samples that this host's scheduling
/// noise moves by more than any bound (p99 of about 1000 serve requests
/// would rest on 10). Without p95, a count between two steps leaves the
/// tail resting on more than the bare ten samples.
pub const TAIL_LADDER: [u64; 3] = [500, 750, 900];

/// How many samples a reported tail needs beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the percentile chosen and its nearest-rank value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Samples ranked beyond the reported one.
    pub beyond: usize,
}

/// Nearest-rank percentile of an ascending slice, `p` in tenths of a
/// percent: the value at rank `ceil(p/1000 · n)` (1-based), in integers
/// so that p90 of 1,000 is rank 900 exactly. Returns the value and
/// how many samples rank beyond it.
pub fn nearest_rank(sorted: &[f64], p: u64) -> (f64, usize) {
    let n = sorted.len();
    let rank = ((p as usize * n).div_ceil(1000)).clamp(1, n);
    (sorted[rank - 1], n - rank)
}

/// The highest percentile of [`TAIL_LADDER`] whose nearest-rank sample
/// has at least [`TAIL_BEYOND`] samples ranked beyond it. Below 40
/// samples no ladder step above the median qualifies and the median is
/// reported. A fixed ladder keeps the reported percentile the same from
/// run to run while the sample count drifts a little, which a
/// continuous `n - 10` rank would not. `None` for no samples.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mut best = None;
    for p in TAIL_LADDER {
        let (value, beyond) = nearest_rank(&s, p);
        if beyond >= TAIL_BEYOND || best.is_none() {
            best = Some(Tail { percentile: p as f64 / 10.0, value, beyond });
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: tail() must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        // 312 samples: p90 leaves 31 beyond.
        let t = tail(&ramp(312)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 281.0, 31));
        // 100 samples: p90 leaves exactly 10; 99 leave 9, so p75.
        let t = tail(&ramp(100)).unwrap();
        assert_eq!((t.percentile, t.beyond), (90.0, 10));
        assert_eq!(tail(&ramp(99)).unwrap().percentile, 75.0);
        // 40: p75 leaves 10; 39 leaves 9 and falls back to p50.
        assert_eq!(tail(&ramp(40)).unwrap().percentile, 75.0);
        assert_eq!(tail(&ramp(39)).unwrap().percentile, 50.0);
        // The ladder tops out at p90, however many samples there are.
        let t = tail(&ramp(1000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 900.0, 100));
        let t = tail(&ramp(10_000)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 9000.0, 1000));
    }

    #[test]
    fn tail_of_few_samples_is_the_median_rank() {
        let t = tail(&ramp(7)).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 4.0, 3));
        assert_eq!(tail(&[]), None);
        let one = tail(&[5.0]).unwrap();
        assert_eq!((one.value, one.beyond), (5.0, 0));
    }
}
