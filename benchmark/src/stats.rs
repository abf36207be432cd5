//! The statistics the benchmark reports: nearest-rank percentiles, the
//! "ten samples beyond" rule, medians of repeats, and quartile spread.

use crate::json::Json;

/// Rank (1-based) of the nearest-rank `p`-th percentile among `n` samples:
/// the smallest rank with at least `p` percent of the samples at or below it.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0 && (0.0..=100.0).contains(&p));
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice. Always returns a
/// value that was measured — no interpolation.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// A percentile is reported only when at least ten samples lie beyond it
/// (choosing-metrics §1): below that it is a handful of outliers, not a
/// property of the system. With 200 batches per repeat p95 qualifies and
/// p99 does not, which is why p99 is not a metric here.
pub fn percentile_is_reportable(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= 10
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median; the mean of the two middle samples when the count is even.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let v = sorted(values.to_vec());
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) computes them — the same rule the PR
/// driver applies to this benchmark's own steadiness.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2);
    let v = sorted(values.to_vec());
    let n = v.len();
    let at = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, with the index (not the
        // fraction) clamped into the data, exactly as Python does.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median: the run-to-run spread
/// a bound is compared against.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / m.abs()
    }
}

/// One metric across the repeats of a run set: the median is the reported
/// value, min/max/count travel with it.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Summary {
    pub fn new(unit: &str, samples: Vec<f64>) -> Summary {
        assert!(!samples.is_empty());
        Summary {
            unit: unit.to_string(),
            samples,
        }
    }

    pub fn median(&self) -> f64 {
        median(&self.samples)
    }

    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("unit", Json::str(&self.unit)),
            ("median", Json::Num(self.median())),
            ("min", Json::Num(self.min())),
            ("max", Json::Num(self.max())),
            ("n", Json::Num(self.samples.len() as f64)),
            (
                "samples",
                Json::Arr(self.samples.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Summary, String> {
        let unit = v
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("summary lacks unit")?;
        let samples = v
            .get("samples")
            .and_then(Json::as_arr)
            .ok_or("summary lacks samples")?
            .iter()
            .map(|s| s.as_f64().ok_or("non-numeric sample"))
            .collect::<Result<Vec<_>, _>>()?;
        if samples.is_empty() {
            return Err("summary has no samples".into());
        }
        Ok(Summary::new(unit, samples))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_return_measured_values() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        let odd: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&odd, 50.0), 3.0);
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // 200 samples: rank(p95) = 190, ten samples beyond — reportable.
        assert!(percentile_is_reportable(200, 95.0));
        assert!(!percentile_is_reportable(199, 95.0));
        // p99 needs a thousand samples.
        assert!(!percentile_is_reportable(200, 99.0));
        assert!(percentile_is_reportable(1000, 99.0));
        assert!(percentile_is_reportable(20, 50.0));
        assert!(!percentile_is_reportable(19, 50.0));
        assert!(!percentile_is_reportable(0, 50.0));
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 5.0, 4.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One burst-hit repeat does not move the median.
        assert_eq!(median(&[10.0, 10.1, 9.9, 10.05, 25.0]), 10.05);
        let s = Summary::new("ms", vec![2.0, 9.0, 4.0]);
        assert_eq!((s.median(), s.min(), s.max()), (4.0, 2.0, 9.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((spread(&[1.0, 2.0, 3.0, 4.0, 5.0]) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn summary_json_roundtrip() {
        let s = Summary::new("sub/s", vec![1.25, 3.5, 2.0000000000000004]);
        assert_eq!(Summary::from_json(&s.to_json()).unwrap(), s);
    }
}
