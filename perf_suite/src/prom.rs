//! Reads a quantile out of the Prometheus-style text `Service::metrics_text`
//! serves. Two of the service's stages — how long a request waited in the
//! admission queue and how long the dispatcher held a wave open — are only
//! visible there, so the benchmark parses them out of the same text a
//! deployment would scrape.

/// The admission-queue wait histogram.
pub const QUEUE_WAIT: &str = "ppd_queue_wait_seconds";
/// The wave-window histogram.
pub const WAVE_WINDOW: &str = "ppd_wave_window_seconds";

/// Cumulative `(le, count)` buckets of the histogram family `name`, in
/// ascending `le` order with `+Inf` last. Lines of other families, comments
/// and malformed lines are skipped. Reads one label set: both histograms
/// above are registered without labels.
pub fn histogram_buckets(text: &str, name: &str) -> Vec<(f64, f64)> {
    let prefix = format!("{name}_bucket{{");
    let mut buckets: Vec<(f64, f64)> = text
        .lines()
        .filter_map(|line| {
            let rest = line.strip_prefix(&prefix)?;
            let (labels, value) = rest.rsplit_once("} ")?;
            let le = labels
                .split(',')
                .find_map(|pair| pair.strip_prefix("le=\""))?
                .strip_suffix('"')?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, value.trim().parse().ok()?))
        })
        .collect();
    buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("bucket bounds are never NaN"));
    buckets
}

/// The `q`-quantile (`0 < q ≤ 1`) of histogram `name`, in the histogram's
/// own unit (seconds): the upper bound of the first bucket whose cumulative
/// count reaches `q × total`. `None` when the histogram is absent or empty
/// (metrics off, or nothing recorded).
pub fn histogram_quantile(text: &str, name: &str, q: f64) -> Option<f64> {
    let buckets = histogram_buckets(text, name);
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let target = q * total;
    let largest_finite = buckets
        .iter()
        .rev()
        .map(|b| b.0)
        .find(|le| le.is_finite())?;
    buckets
        .iter()
        .find(|(_, cum)| *cum >= target)
        .map(|(le, _)| le.min(largest_finite))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP ppd_queue_wait_seconds Submission-to-wave-pop wait
# TYPE ppd_queue_wait_seconds histogram
ppd_queue_wait_seconds_bucket{le=\"0.001\"} 2
ppd_queue_wait_seconds_bucket{le=\"0.002\"} 6
ppd_queue_wait_seconds_bucket{le=\"0.5\"} 9
ppd_queue_wait_seconds_bucket{le=\"+Inf\"} 10
ppd_queue_wait_seconds_sum 0.9
ppd_queue_wait_seconds_count 10
# TYPE ppd_wave_window_seconds histogram
ppd_wave_window_seconds_bucket{le=\"0.0021\"} 4
ppd_wave_window_seconds_bucket{le=\"+Inf\"} 4
ppd_wave_window_seconds_sum 0.008
ppd_wave_window_seconds_count 4
ppd_cache_hits_total{tenant=\"default\"} 12
ppd_unit_solve_seconds_bucket{tenant=\"default\",solver=\"exact\",le=\"0.01\"} 3
";

    #[test]
    fn reads_both_service_histograms() {
        assert_eq!(
            histogram_buckets(TEXT, QUEUE_WAIT),
            vec![
                (0.001, 2.0),
                (0.002, 6.0),
                (0.5, 9.0),
                (f64::INFINITY, 10.0)
            ]
        );
        assert_eq!(histogram_quantile(TEXT, QUEUE_WAIT, 0.5), Some(0.002));
        assert_eq!(histogram_quantile(TEXT, QUEUE_WAIT, 0.2), Some(0.001));
        assert_eq!(histogram_quantile(TEXT, QUEUE_WAIT, 0.9), Some(0.5));
        // The overflow bucket reads as the largest finite bound.
        assert_eq!(histogram_quantile(TEXT, QUEUE_WAIT, 1.0), Some(0.5));
        assert_eq!(histogram_quantile(TEXT, WAVE_WINDOW, 0.5), Some(0.0021));
    }

    #[test]
    fn label_order_and_other_families_do_not_confuse_it() {
        assert_eq!(
            histogram_buckets(TEXT, "ppd_unit_solve_seconds"),
            vec![(0.01, 3.0)]
        );
        assert!(histogram_buckets(TEXT, "ppd_queue_wait").is_empty());
    }

    #[test]
    fn absent_or_empty_histograms_read_as_none() {
        assert_eq!(histogram_quantile("", QUEUE_WAIT, 0.5), None);
        assert_eq!(histogram_quantile(TEXT, "ppd_nope_seconds", 0.5), None);
        let empty = "ppd_queue_wait_seconds_bucket{le=\"+Inf\"} 0\n";
        assert_eq!(histogram_quantile(empty, QUEUE_WAIT, 0.5), None);
        // Only an overflow bucket: no finite bound to report.
        let overflow = "ppd_queue_wait_seconds_bucket{le=\"+Inf\"} 3\n";
        assert_eq!(histogram_quantile(overflow, QUEUE_WAIT, 0.5), None);
    }
}
