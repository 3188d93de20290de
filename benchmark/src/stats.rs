//! Order statistics over small samples.

/// A timing metric as reported: the median over the run's samples,
/// with the extremes and the sample count beside it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `v` (mean of the two middle values for even counts);
/// 0.0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `v`; 0.0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn summarize(v: &[f64]) -> Summary {
    let s = sorted(v);
    Summary {
        median: median(&s),
        min: s.first().copied().unwrap_or(0.0),
        max: s.last().copied().unwrap_or(0.0),
        n: s.len(),
    }
}

/// `value` as the reported figure, with the extremes and count of the
/// plain `samples` it was distilled from beside it.
pub fn beside(value: f64, samples: &[f64]) -> Summary {
    Summary {
        median: value,
        ..summarize(samples)
    }
}

/// The smallest of `samples` as the reported figure, the rest beside it.
pub fn fastest(samples: &[f64]) -> Summary {
    beside(
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        samples,
    )
}

/// A single measured value presented as a one-sample summary.
pub fn single(x: f64) -> Summary {
    Summary {
        median: x,
        min: x,
        max: x,
        n: 1,
    }
}

/// `num / den`, or 0.0 when the denominator is 0 (a ratio over an
/// empty population).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
