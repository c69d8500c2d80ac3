//! Order statistics over raw samples. Percentiles come from sorted raw
//! samples, not from `ppd_obs::Histogram`, so a change to the program's own
//! recorder cannot change what the instrument reads.

/// Sorts samples ascending (no NaNs are ever recorded: every sample is a
/// measured duration or a probability difference).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    samples
}

/// Nearest-rank percentile of ascending `sorted` samples, `p` in `(0, 100]`.
/// Returns 0 for an empty slice (a phase that recorded nothing of this kind).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// The tail value reported under the name `latency_p95_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually read.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
}

/// Samples a p95 needs before it is trusted: at 200 the p95 has exactly ten
/// samples beyond it.
const P95_MIN_SAMPLES: usize = 200;
/// Samples that must lie beyond a reported tail percentile.
const BEYOND: usize = 10;

/// Picks the tail of ascending `sorted` samples: p95 with at least 200
/// samples, otherwise the highest percentile that still has ten samples
/// beyond it, and the median when even that does not exist.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    if n >= P95_MIN_SAMPLES {
        return Tail {
            percentile: 95.0,
            value: percentile(sorted, 95.0),
        };
    }
    if n > BEYOND {
        let index = n - BEYOND - 1;
        let p = (index + 1) as f64 / n as f64 * 100.0;
        // Never read below the median: with 11..=20 samples "ten beyond"
        // would land in the lower half.
        if p >= 50.0 {
            return Tail {
                percentile: p,
                value: sorted[index],
            };
        }
    }
    Tail {
        percentile: 50.0,
        value: percentile(sorted, 50.0),
    }
}

/// Quartiles of ascending `sorted` samples as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so the A/A report reads the same spread the benchmark's driver computes.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range as a share of the median — the spread the driver
/// holds against each metric's bound.
pub fn relative_spread(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let [q1, q2, q3] = quartiles(&s);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 95.0), 10.0);
        assert_eq!(percentile(&s, 10.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_p95_from_200_samples() {
        let t = tail(&ramp(200));
        assert_eq!(t.percentile, 95.0);
        assert_eq!(t.value, 190.0);
        // Exactly ten samples lie beyond it.
        assert_eq!(ramp(200).iter().filter(|&&v| v > t.value).count(), 10);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_below_200() {
        for n in [21usize, 40, 100, 199] {
            let s = ramp(n);
            let t = tail(&s);
            assert_eq!(
                s.iter().filter(|&&v| v > t.value).count(),
                10,
                "n = {n}: ten samples must lie beyond the tail"
            );
            assert!(t.percentile < 95.0 && t.percentile >= 50.0, "n = {n}");
        }
        // 100 samples: the 90th value, p90.
        assert_eq!(tail(&ramp(100)).value, 90.0);
        assert_eq!(tail(&ramp(100)).percentile, 90.0);
    }

    #[test]
    fn tail_falls_back_to_the_median() {
        // With 20 samples "ten beyond" is the 10th value = the median; with
        // fewer it would sit below the median, so the median is reported.
        assert_eq!(tail(&ramp(20)).value, 10.0);
        assert_eq!(tail(&ramp(15)).percentile, 50.0);
        assert_eq!(tail(&ramp(15)).value, 8.0);
        assert_eq!(tail(&ramp(3)).value, 2.0);
        assert_eq!(tail(&[]).value, 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), [0.75, 1.5, 2.25]);
        assert_eq!(relative_spread(&ramp(10)), 1.0);
    }
}
