//! Sample statistics and the regression rule.
//!
//! Every timing is summarised as min / median / max / n. Which of them
//! is the metric's value depends on what varies between reps:
//!
//! * the *work* is the same every rep (a one-worker drain at a fixed
//!   seed, a sequential reference, set-up): the host is the only source
//!   of variation and it only ever adds time, so the value is the
//!   fastest rep ([`Summary::best`]). On the shared 2-vCPU host this
//!   was developed on, 14 back-to-back runs moved the fastest rep by 3%
//!   and the median by 16%.
//! * the *schedule* differs from rep to rep (two workers): the fastest
//!   rep is a lucky interleaving, so the value is the median
//!   ([`Summary::typical`]).
//!
//! Tail latency is the highest percentile that still has at least ten
//! samples beyond it, so a "p99" is never one outlier.
//!
//! A ratio of two same-work timings is taken window by window
//! ([`windowed_ratio`]), because the host disturbs a run on two time
//! scales at once.

use crate::json::Value;

/// One metric's samples within a run: the reported value and the
/// spread it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub median: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// A value that was computed once (a count, a ratio of medians).
    pub fn single(x: f64) -> Summary {
        Summary {
            value: x,
            min: x,
            median: x,
            max: x,
            n: 1,
        }
    }

    /// Samples of identical work: report the fastest.
    pub fn best(samples: &[f64]) -> Summary {
        let s = Summary::typical(samples);
        Summary { value: s.min, ..s }
    }

    /// Samples whose work or schedule varies: report the median.
    pub fn typical(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarise");
        let median = median(samples);
        Summary {
            value: median,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            median,
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
        }
    }

    pub fn to_json(self, unit: &str) -> Value {
        Value::obj([
            ("value", Value::Num(self.value)),
            ("unit", Value::str(unit)),
            ("min", Value::Num(self.min)),
            ("median", Value::Num(self.median)),
            ("max", Value::Num(self.max)),
            ("n", Value::Num(self.n as f64)),
        ])
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples for an even count.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Iterations per window of [`windowed_ratio`]: a second or two of
/// wall-clock for the workloads here.
pub const RATIO_WINDOW: usize = 4;

/// The ratio `num / den` of two quantities timed alternately
/// (`num[i]` right before `den[i]`), each doing the same work every
/// time. Bursts of interference, shorter than a rep, are shed by taking
/// the fastest rep of each *within* a window of [`RATIO_WINDOW`]
/// iterations; slow phases, longer than a window, slow both sides of a
/// window alike and cancel in its ratio. The value is the median
/// window's ratio.
pub fn windowed_ratio(num: &[f64], den: &[f64]) -> Summary {
    assert!(
        !num.is_empty() && num.len() == den.len(),
        "ratio needs paired samples"
    );
    let fastest = |w: &[f64]| w.iter().copied().fold(f64::INFINITY, f64::min);
    let ratios: Vec<f64> = num
        .chunks(RATIO_WINDOW)
        .zip(den.chunks(RATIO_WINDOW))
        .map(|(n, d)| fastest(n) / fastest(d))
        .collect();
    Summary::typical(&ratios)
}

/// Nearest-rank percentile `pct` (0–100) of the samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let v = sorted(samples);
    let rank = ((pct / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The tail percentiles a run may report, lowest first.
const TAIL_LADDER: [usize; 5] = [50, 75, 90, 95, 99];

/// The highest percentile of the ladder that has at least ten of `n`
/// samples beyond it (`None` below 20 samples: not even the median
/// qualifies).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rfind(|&&pct| n * (100 - pct) >= 10 * 100)
        .map(|&pct| pct as f64)
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse `new` is than `old`, as a share of `old` (negative =
/// improved).
pub fn worsening(old: f64, new: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (new - old) / old,
        Better::Higher => (old - new) / old,
    }
}

/// Did the metric worsen by more than `bound` (a share of `old`) *and*
/// by more than `floor` in its own unit? The floor is 0 for most
/// metrics; a lower-is-better metric whose values are tiny sets one so
/// that a large share of next to nothing is not a regression.
pub fn regressed(old: f64, new: f64, better: Better, bound: f64, floor: f64) -> bool {
    worsening(old, new, better) > bound && (new - old).abs() > floor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = Summary::typical(&[0.4, 0.1, 0.3, 0.2, 0.5]);
        assert_eq!(
            (s.value, s.min, s.median, s.max, s.n),
            (0.3, 0.1, 0.3, 0.5, 5)
        );
        let b = Summary::best(&[0.4, 0.1, 0.3, 0.2, 0.5]);
        assert_eq!(
            (b.value, b.min, b.median, b.max, b.n),
            (0.1, 0.1, 0.3, 0.5, 5)
        );
    }

    #[test]
    fn windowed_ratio_sheds_bursts_and_cancels_slow_phases() {
        // True ratio 0.1. The second window runs on a host half as fast
        // (both sides doubled); single reps are hit by bursts.
        let num = [1.0, 1.0, 3.0, 1.0, 2.0, 2.0, 2.0, 9.0, 1.0];
        let den = [10.0, 25.0, 10.0, 10.0, 20.0, 20.0, 50.0, 20.0, 10.0];
        let r = windowed_ratio(&num, &den);
        assert_eq!(r.n, 3, "two full windows and a short last one");
        assert!((r.value - 0.1).abs() < 1e-12);
        assert!((r.min - 0.1).abs() < 1e-12 && (r.max - 0.1).abs() < 1e-12);
        // The fastest reps of a window need not be of the same iteration.
        let r = windowed_ratio(&[1.0, 2.0], &[20.0, 10.0]);
        assert!((r.value - 0.1).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1_000_000), Some(99.0));
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(1.0, 1.1, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(1.0, 0.9, Better::Lower) + 0.1).abs() < 1e-12);
        assert!((worsening(2.0, 1.8, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(worsening(2.0, 2.5, Better::Higher) < 0.0);
    }

    #[test]
    fn bound_comparison() {
        // 9% slower is inside a 10% bound, 11% is outside.
        assert!(!regressed(1.0, 1.09, Better::Lower, 0.10, 0.0));
        assert!(regressed(1.0, 1.11, Better::Lower, 0.10, 0.0));
        // A speed-up never regresses; a lost speed-up does.
        assert!(!regressed(0.10, 0.30, Better::Higher, 0.15, 0.0));
        assert!(regressed(0.10, 0.08, Better::Higher, 0.15, 0.0));
    }

    #[test]
    fn a_floor_needs_the_relative_bound_and_the_absolute_difference() {
        // +50% but only 15 ms: noise.
        assert!(!regressed(0.030, 0.045, Better::Lower, 0.20, 0.050));
        // +60 ms but only 10%: inside the bound.
        assert!(!regressed(0.600, 0.660, Better::Lower, 0.20, 0.050));
        // +30% and +90 ms: a regression.
        assert!(regressed(0.300, 0.390, Better::Lower, 0.20, 0.050));
        // Without a floor the first case is one.
        assert!(regressed(0.030, 0.045, Better::Lower, 0.20, 0.0));
    }
}
