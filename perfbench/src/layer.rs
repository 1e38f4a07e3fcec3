//! Small helpers that turn spans and counts into per-layer values. A
//! layer the workload never calls reads 0.

use crate::measure;

/// The `q`-quantile of `samples`, or 0 with no samples. A layer with
/// samples but too thin a tail for `q` reads NaN, which the report
/// refuses, so the workload must be sized to give every percentile ten
/// samples beyond it.
#[must_use]
pub fn pct(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    measure::percentile(samples, q).unwrap_or(f64::NAN)
}

/// Mean, or 0 with no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    measure::mean(samples).unwrap_or(0.0)
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: usize, den: usize) -> f64 {
    per(num as f64, den)
}

/// `value / den`, or 0 when `den` is 0.
#[must_use]
pub fn per(value: f64, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        value / den as f64
    }
}

/// `a / (a + b)`, or 0 when both are 0.
#[must_use]
pub fn share(a: f64, b: f64) -> f64 {
    if a + b > 0.0 {
        a / (a + b)
    } else {
        0.0
    }
}
