//! Exact order statistics over raw samples. No histogram buckets: every
//! quantile is a sample that was actually measured.

/// The `q`-quantile of `samples` by nearest rank (the smallest sample
/// with at least `q·n` samples at or below it). Sorts in place.
/// Returns `None` for an empty sample.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// Arithmetic mean, `None` for an empty sample.
pub fn mean(samples: &[u64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    Some(samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64)
}

/// Median of floating-point values (upper median for even counts).
pub fn median_f64(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable_by(|a, b| a.total_cmp(b));
    Some(values[values.len() / 2])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut s, 0.5), Some(50));
        assert_eq!(quantile(&mut s, 0.99), Some(99));
        assert_eq!(quantile(&mut s, 1.0), Some(100));
        assert_eq!(quantile(&mut s, 0.0), Some(1));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(quantile(&mut [7], 0.99), Some(7));
    }

    #[test]
    fn means_and_medians() {
        assert_eq!(mean(&[1, 2, 3, 6]), Some(3.0));
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_f64(&mut []), None);
    }
}
