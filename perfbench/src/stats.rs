//! Order statistics for the printed report and the result line.

/// Percentiles `.tail` may use, highest first. It stops at p90: on a
/// shared small host, p95 and above of a millisecond op measure the
/// neighbours' bursts more than this program.
const TAIL_LADDER: [u32; 6] = [90, 80, 75, 70, 60, 50];

/// Samples beyond a percentile before it counts as measured.
const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolation quantile (`q` in 0..=1) of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest ladder percentile with at least ten of `n` samples
/// beyond it (p50 when there are fewer than twenty samples).
pub fn tail_percentile(n: usize) -> u32 {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= TAIL_MIN_BEYOND * 100)
        .unwrap_or(50)
}

/// Added to the failed fraction so a clean run is not 0, which a
/// relative bound cannot compare against. A run whose failure rate is
/// above a quarter of it moves the metric past its 25 % bound.
pub const FAILED_FLOOR: f64 = 1e-4;

/// Failed ÷ attempted ops, plus [`FAILED_FLOOR`].
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64 + FAILED_FLOOR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50);
        assert_eq!(tail_percentile(50), 80);
        assert_eq!(tail_percentile(99), 80);
        assert_eq!(tail_percentile(1000), 90);
    }

    #[test]
    fn failed_frac_is_positive_and_grows_with_failures() {
        let clean = failed_frac(0, 1000);
        assert_eq!(clean, FAILED_FLOOR);
        assert!(failed_frac(1, 1000) > 1.25 * clean);
        assert_eq!(failed_frac(0, 0), FAILED_FLOOR);
    }
}
