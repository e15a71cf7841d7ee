//! Sample statistics and `/metrics` scraping.
//!
//! Every function here refuses input it cannot summarise honestly: a
//! tail percentile needs at least [`MIN_BEYOND_TAIL`] samples beyond
//! it, and a ratio whose base is zero is an error rather than 0.

use std::collections::BTreeMap;
use std::fmt;

/// Samples a tail percentile must have strictly beyond its rank.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Why a statistic could not be computed.
#[derive(Debug, Clone, PartialEq)]
pub enum StatError {
    /// No samples at all.
    Empty,
    /// A tail percentile with too few samples beyond its rank.
    TooFewBeyondTail {
        /// Requested quantile in `(0, 1)`.
        quantile: f64,
        /// Samples collected.
        samples: usize,
        /// Samples that would lie beyond the quantile's rank.
        beyond: usize,
    },
    /// A ratio whose denominator is zero.
    ZeroBase,
    /// A metric missing from a `/metrics` scrape.
    MissingSample(String),
}

impl fmt::Display for StatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatError::Empty => write!(f, "no samples"),
            StatError::TooFewBeyondTail {
                quantile,
                samples,
                beyond,
            } => write!(
                f,
                "p{} of {samples} samples has {beyond} beyond it (need {MIN_BEYOND_TAIL})",
                quantile * 100.0
            ),
            StatError::ZeroBase => write!(f, "ratio with a zero base"),
            StatError::MissingSample(name) => write!(f, "metric sample {name} not exported"),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Result<f64, StatError> {
    if samples.is_empty() {
        return Err(StatError::Empty);
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    Ok(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Nearest-rank tail percentile. Refuses unless at least
/// [`MIN_BEYOND_TAIL`] samples lie strictly beyond the chosen rank, so
/// p90 needs 100 samples and p99 needs 1000.
pub fn tail_percentile(samples: &[f64], quantile: f64) -> Result<f64, StatError> {
    assert!(
        quantile > 0.0 && quantile < 1.0,
        "quantile must lie in (0, 1)"
    );
    if samples.is_empty() {
        return Err(StatError::Empty);
    }
    let n = samples.len();
    let rank = ((quantile * n as f64).ceil() as usize).clamp(1, n) - 1;
    let beyond = n - 1 - rank;
    if beyond < MIN_BEYOND_TAIL {
        return Err(StatError::TooFewBeyondTail {
            quantile,
            samples: n,
            beyond,
        });
    }
    Ok(sorted(samples)[rank])
}

/// Median over equal time blocks of a per-block statistic.
///
/// `samples` are `(completion offset in seconds, value)` pairs from a
/// window of `window_s` seconds, cut into `blocks` equal blocks. A
/// slowdown of the shared host that covers a few blocks moves only
/// those blocks, not the median across them. `stat` receives each
/// block's values and its length in seconds; every block must yield a
/// value.
pub fn block_median(
    samples: &[(f64, f64)],
    window_s: f64,
    blocks: usize,
    stat: impl Fn(&[f64], f64) -> Result<f64, StatError>,
) -> Result<f64, StatError> {
    if samples.is_empty() || blocks == 0 || window_s <= 0.0 {
        return Err(StatError::Empty);
    }
    let width = window_s / blocks as f64;
    let mut grouped: Vec<Vec<f64>> = vec![Vec::new(); blocks];
    for &(at, value) in samples {
        let block = ((at / width) as usize).min(blocks - 1);
        grouped[block].push(value);
    }
    let per_block: Result<Vec<f64>, StatError> =
        grouped.iter().map(|values| stat(values, width)).collect();
    median(&per_block?)
}

/// `numerator / base`, or [`StatError::ZeroBase`].
pub fn ratio(numerator: f64, base: f64) -> Result<f64, StatError> {
    if base == 0.0 {
        Err(StatError::ZeroBase)
    } else {
        Ok(numerator / base)
    }
}

/// One parsed Prometheus text exposition: sample key (name plus label
/// block exactly as rendered, e.g. `x_bucket{endpoint="detect",le="0.01"}`)
/// to value.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    samples: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses the text format, skipping comments and blank lines.
    pub fn parse(text: &str) -> Scrape {
        let samples = text
            .lines()
            .map(str::trim)
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .filter_map(|line| {
                let (key, value) = line.rsplit_once(' ')?;
                Some((key.trim().to_string(), value.parse::<f64>().ok()?))
            })
            .collect();
        Scrape { samples }
    }

    /// The sample `name` with exactly `labels` (in rendered order);
    /// pass `&[]` for an unlabelled sample.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Result<f64, StatError> {
        let key = sample_key(name, labels);
        self.samples
            .get(&key)
            .copied()
            .ok_or(StatError::MissingSample(key))
    }

    /// `later − self` for one sample: a counter delta over a window.
    pub fn delta(
        &self,
        later: &Scrape,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Result<f64, StatError> {
        Ok(later.get(name, labels)? - self.get(name, labels).unwrap_or(0.0))
    }

    /// Mean of a histogram's observations between `self` and `later`,
    /// summed over every label set in `label_sets`: Δ`_sum` ÷ Δ`_count`.
    /// Exact, unlike a quantile read from buckets whose lowest bound
    /// (500 µs) lies above most cached reads.
    pub fn histogram_mean(
        &self,
        later: &Scrape,
        name: &str,
        label_sets: &[&[(&str, &str)]],
    ) -> Result<f64, StatError> {
        let mut sum = 0.0;
        let mut count = 0.0;
        for labels in label_sets {
            sum += self.delta(later, &format!("{name}_sum"), labels)?;
            count += self.delta(later, &format!("{name}_count"), labels)?;
        }
        ratio(sum, count)
    }
}

fn sample_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let block: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", block.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_refuses_fewer_than_ten_beyond() {
        let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(matches!(
            tail_percentile(&ninety_nine, 0.9),
            Err(StatError::TooFewBeyondTail { beyond: 9, .. })
        ));
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Ok(89.0));
        let thousand: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand, 0.99), Ok(989.0));
        assert!(tail_percentile(&thousand[..999], 0.99).is_err());
        assert_eq!(tail_percentile(&[], 0.5), Err(StatError::Empty));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Ok(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Ok(2.5));
        assert_eq!(median(&[]), Err(StatError::Empty));
    }

    #[test]
    fn block_median_ignores_a_slow_block() {
        // Four one-second blocks: three at 1 ms, one at 9 ms.
        let samples: Vec<(f64, f64)> = (0..400)
            .map(|i| {
                let at = f64::from(i) / 100.0;
                (at, if at >= 3.0 { 9.0 } else { 1.0 })
            })
            .collect();
        assert_eq!(block_median(&samples, 4.0, 4, |v, _| median(v)), Ok(1.0));
        let rate = block_median(&samples, 4.0, 4, |v, secs| ratio(v.len() as f64, secs));
        assert_eq!(rate, Ok(100.0));
        // An empty block has no median, so the whole statistic fails.
        assert_eq!(
            block_median(&samples[..300], 4.0, 4, |v, _| median(v)),
            Err(StatError::Empty)
        );
    }

    #[test]
    fn zero_base_ratio_is_an_error_not_zero() {
        assert_eq!(ratio(0.0, 0.0), Err(StatError::ZeroBase));
        assert_eq!(ratio(5.0, 0.0), Err(StatError::ZeroBase));
        assert_eq!(ratio(0.0, 4.0), Ok(0.0));
        assert_eq!(ratio(3.0, 4.0), Ok(0.75));
    }

    const BEFORE: &str = "# HELP gve_cache_hits_total Hits.\n\
        # TYPE gve_cache_hits_total counter\n\
        gve_cache_hits_total 10\n\
        gve_http_request_seconds_bucket{endpoint=\"detect\",le=\"0.001\"} 4\n\
        gve_http_request_seconds_bucket{endpoint=\"detect\",le=\"0.01\"} 4\n\
        gve_http_request_seconds_bucket{endpoint=\"detect\",le=\"+Inf\"} 4\n\
        gve_http_request_seconds_sum{endpoint=\"detect\"} 0.002\n\
        gve_http_request_seconds_count{endpoint=\"detect\"} 4\n";
    const AFTER: &str = "gve_cache_hits_total 25\n\
        gve_net_loop_seconds_sum 0.5\n\
        gve_http_request_seconds_bucket{endpoint=\"detect\",le=\"0.001\"} 8\n\
        gve_http_request_seconds_bucket{endpoint=\"detect\",le=\"0.01\"} 12\n\
        gve_http_request_seconds_bucket{endpoint=\"detect\",le=\"+Inf\"} 12\n\
        gve_http_request_seconds_sum{endpoint=\"detect\"} 0.014\n\
        gve_http_request_seconds_count{endpoint=\"detect\"} 12\n\
        gve_http_request_seconds_sum{endpoint=\"membership\"} 0.04\n\
        gve_http_request_seconds_count{endpoint=\"membership\"} 8\n";

    #[test]
    fn counter_deltas_parse_labelled_and_unlabelled_samples() {
        let before = Scrape::parse(BEFORE);
        let after = Scrape::parse(AFTER);
        assert_eq!(before.delta(&after, "gve_cache_hits_total", &[]), Ok(15.0));
        let detect = [("endpoint", "detect")];
        assert_eq!(
            before.delta(&after, "gve_http_request_seconds_count", &detect),
            Ok(8.0)
        );
        // A sample that first appears in the later scrape starts at 0.
        assert_eq!(
            before.delta(&after, "gve_net_loop_seconds_sum", &[]),
            Ok(0.5)
        );
        assert!(matches!(
            before.delta(&after, "gve_missing_total", &[]),
            Err(StatError::MissingSample(_))
        ));
    }

    #[test]
    fn histogram_mean_sums_label_sets_and_refuses_an_empty_window() {
        let before = Scrape::parse(BEFORE);
        let after = Scrape::parse(AFTER);
        let detect: &[(&str, &str)] = &[("endpoint", "detect")];
        let membership: &[(&str, &str)] = &[("endpoint", "membership")];
        let name = "gve_http_request_seconds";
        // Detect: 0.012 s over 8 new observations.
        let mean = before.histogram_mean(&after, name, &[detect]).unwrap();
        assert!((mean - 0.0015).abs() < 1e-12, "{mean}");
        // With membership: (0.012 + 0.04) s over 8 + 8.
        let mean = before
            .histogram_mean(&after, name, &[detect, membership])
            .unwrap();
        assert!((mean - 0.00325).abs() < 1e-12, "{mean}");
        assert_eq!(
            after.histogram_mean(&after, name, &[detect]),
            Err(StatError::ZeroBase)
        );
    }
}
