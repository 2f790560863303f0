//! Order statistics over the repetitions of one run.

use crate::json::Json;

/// Median of `values` (the mean of the two middle values for an even
/// count). Panics on an empty slice: a metric with no sample is a bug in
/// the benchmark, not a number to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` does (its default "exclusive"
/// method) — the same rule the acceptance check applies to run-to-run
/// spread. A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    let mut cuts = [0.0; 3];
    for (k, cut) in cuts.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // May exceed 4 (or go negative) at the clamped ends: the cut is
        // then extrapolated from the outermost pair, as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Which statistic of a run's samples is the run's value of a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gate {
    /// The fastest sample: for times. Interference on a shared machine only
    /// ever adds time, and it comes in phases longer than a run, so a run's
    /// median moves with the machine; its fastest sample much less
    /// (measured: about half the run-to-run spread).
    Fastest,
    /// For sizes, which interference does not inflate.
    Median,
}

impl Gate {
    pub fn name(self) -> &'static str {
        match self {
            Gate::Fastest => "min",
            Gate::Median => "median",
        }
    }

    pub fn of(self, summary: &Summary) -> f64 {
        match self {
            Gate::Fastest => summary.min,
            Gate::Median => summary.median,
        }
    }
}

/// The reported shape of one metric over a run's timed repetitions.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// The samples, in the order they were taken.
    pub samples: Vec<f64>,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(values);
        let sorted = sorted(values);
        Summary {
            samples: values.to_vec(),
            min: sorted[0],
            q1,
            median: median(values),
            q3,
            max: sorted[sorted.len() - 1],
        }
    }

    /// All the statistics; `value` is the one `gate` selects.
    pub fn to_json(&self, unit: &str, gate: Gate) -> Json {
        Json::Obj(vec![
            ("unit".into(), Json::Str(unit.into())),
            ("value".into(), Json::Num(gate.of(self))),
            ("value_is".into(), Json::Str(gate.name().into())),
            ("n".into(), Json::Num(self.samples.len() as f64)),
            ("median".into(), Json::Num(self.median)),
            ("min".into(), Json::Num(self.min)),
            ("q1".into(), Json::Num(self.q1)),
            ("q3".into(), Json::Num(self.q3)),
            ("max".into(), Json::Num(self.max)),
            (
                "samples".into(),
                Json::Arr(self.samples.iter().copied().map(Json::Num).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4)
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4): extrapolated past both ends.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4)
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn summary_of_one_sample_is_flat() {
        let s = Summary::of(&[2.5]);
        assert_eq!(
            (s.samples.len(), s.min, s.q1, s.median, s.q3, s.max),
            (1, 2.5, 2.5, 2.5, 2.5, 2.5)
        );
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.samples.len(), 5);
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        assert_eq!(s.median, 3.0);
    }
}
