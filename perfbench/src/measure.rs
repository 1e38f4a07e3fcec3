//! Order statistics and process readings shared by every workload.

/// Fewest samples that must lie strictly above a reported percentile.
/// Below that, a tail percentile is one or two unlucky samples and moves
/// from run to run by more than any regression worth catching.
pub const MIN_BEYOND: usize = 10;

/// Midpoints per order statistic when integrating the Harrell-Davis
/// weights.
const HD_STEPS: usize = 8;

/// The `q`-quantile (`0 < q < 1`) of `samples`, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond its nearest rank.
///
/// The estimate is Harrell and Davis's: the mean of all order statistics
/// weighted by the Beta(q(n+1), (1-q)(n+1)) mass over each one's share
/// of `[0, 1]`. Each op's time carries its own noise from the shared
/// host; a single order statistic passes that noise on whole, where this
/// weighted mean averages it over the samples near the rank.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 1.0, "percentile wants 0 < q < 1, got {q}");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (a, b) = (q * (n + 1) as f64 - 1.0, (1.0 - q) * (n + 1) as f64 - 1.0);
    // The Beta log-density (unnormalised) at midpoints of each sample's
    // share; normalising by the total makes the weights sum to one.
    let cells = n * HD_STEPS;
    let log_density: Vec<f64> = (0..cells)
        .map(|j| {
            let x = (j as f64 + 0.5) / cells as f64;
            a * x.ln() + b * (-x).ln_1p()
        })
        .collect();
    let peak = log_density.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let (mut total, mut sum) = (0.0, 0.0);
    for (j, l) in log_density.iter().enumerate() {
        let w = (l - peak).exp();
        total += w;
        sum += w * sorted[j / HD_STEPS];
    }
    Some(sum / total)
}

/// The median; for an even count, the mean of the two middle values.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Mean, or `None` for no samples.
#[must_use]
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// First and third quartiles as Python's `statistics.quantiles(data, n=4)`
/// computes them (its default "exclusive" method), so the steadiness
/// report reads the same as an outside check of the same values.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

/// The `VmHWM` field of a `/proc/<pid>/status` text, in kB.
#[must_use]
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut parts = rest.split_whitespace();
        let value = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    fn close(got: Option<f64>, want: f64) -> bool {
        got.is_some_and(|g| (g - want).abs() < 0.05)
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        // p90 of 99 samples has only 9 beyond its nearest rank.
        assert_eq!(percentile(&ramp(99), 0.9), None);
        // p90 of 100 samples: nearest rank 90, exactly 10 beyond. On a
        // ramp 1..=n the estimate is the Beta mean q·n plus half a step.
        assert!(close(percentile(&ramp(100), 0.9), 90.5));
        // p95 needs 200 samples.
        assert_eq!(percentile(&ramp(199), 0.95), None);
        assert!(close(percentile(&ramp(200), 0.95), 190.5));
        // A median also needs ten samples above it.
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert!(close(percentile(&ramp(20), 0.5), 10.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(150);
        v.reverse();
        assert_eq!(percentile(&v, 0.9), percentile(&ramp(150), 0.9));
    }

    #[test]
    fn percentile_of_equal_samples_is_their_value() {
        let v = vec![7.25; 300];
        let got = percentile(&v, 0.9).expect("enough samples");
        assert!((got - 7.25).abs() < 1e-12, "{got}");
    }

    #[test]
    fn percentile_barely_moves_when_one_sample_crosses_a_gap() {
        // 200 ops in two modes, 1 ms and 2 ms, with the p90 rank (180) on
        // the boundary. One op crossing the gap moves the nearest rank by
        // the whole gap; the weighted estimate moves by a tenth of it.
        let modes = |low: usize| -> Vec<f64> {
            (0..200).map(|i| if i < low { 1.0 } else { 2.0 }).collect()
        };
        let moved = percentile(&modes(179), 0.9).unwrap() - percentile(&modes(180), 0.9).unwrap();
        assert!(moved > 0.0 && moved < 0.15, "{moved}");
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status = "Name:\tbench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(vm_hwm_kb(status), Some(12345));
        assert_eq!(vm_hwm_kb("Name:\tbench\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\t12 MB\n"), None);
        assert_eq!(vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        let mb = peak_rss_mb().expect("Linux exposes VmHWM");
        assert!(mb > 0.0);
    }
}
