//! The benchmark's own arithmetic: quantiles, the tail-percentile rule,
//! failure accounting, metric-name validation and the result line.

use std::fmt::Write as _;

/// Percentiles the tail rule may pick, highest first.
const TAIL_CANDIDATES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Nearest-rank quantile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it. `q` is in `[0, 1]`.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it
/// in a sample of `n`, or `None` when even the 75th has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// A latency summary: median and the tail percentile the rule allows,
/// with the sample count they rest on.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// `(percentile, value)` when the sample is large enough.
    pub tail: Option<(f64, f64)>,
}

pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        p50: quantile(&sorted, 0.5),
        tail: tail_percentile(sorted.len()).map(|p| (p, quantile(&sorted, p / 100.0))),
    })
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Failed operations over attempted ones. Nothing attempted is an error
/// rate of 1: a run that did no work has not shown it works.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    assert!(
        failed <= attempted,
        "{failed} failures of {attempted} attempts"
    );
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Metric names: a leading letter or digit, then at most 63 more of
/// letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The final stdout line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Rejects invalid or repeated names and non-finite values.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(&m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        if i > 0 {
            out.push(',');
        }
        // `{}` prints the shortest representation that round-trips: every
        // digit the measurement has.
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// FNV-1a, for input fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let samples: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        // p95 of 1..=200 by nearest rank is 190; ten samples lie beyond.
        assert_eq!(s.tail, Some((95.0, 190.0)));
        assert_eq!(samples.iter().filter(|&&v| v > 190.0).count(), 10);
        let small = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((small.n, small.p50, small.tail), (3, 2.0, None));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 1.0);
        assert_eq!(quantile(&v, 0.26), 2.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn error_rate_counts_failures_over_attempts() {
        assert_eq!(error_rate(1000, 0), 0.0);
        assert_eq!(error_rate(1000, 10), 0.01);
        assert_eq!(error_rate(4, 4), 1.0);
        assert_eq!(error_rate(0, 0), 1.0);
    }

    #[test]
    #[should_panic]
    fn more_failures_than_attempts_is_a_bug() {
        error_rate(1, 2);
    }

    #[test]
    fn metric_names_are_restricted() {
        for ok in [
            "p50_ms",
            "core.ns_per_cell",
            "index.pruned.pqgram",
            "9a-b",
            "x",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in [
            "",
            "_x",
            ".x",
            "a b",
            "a/b",
            "lat(ms)",
            "é",
            "a\"b",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
    }

    #[test]
    fn result_line_is_exact_json_and_rejects_bad_names() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("p50_ms", 1.25, "ms"),
                Metric::new("setup_s", 0.5, "s"),
            ],
        )
        .unwrap();
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{\
             \"p50_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        assert!(result_line(true, 1, 0, &[Metric::new("bad name", 1.0, "ms")]).is_err());
        assert!(result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "ms")]).is_err());
        let twice = [Metric::new("x", 1.0, "ms"), Metric::new("x", 2.0, "ms")];
        assert!(result_line(true, 1, 0, &twice).is_err());
    }

    #[test]
    fn fingerprint_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
