//! Order statistics over host and sim samples.

/// Sorts `samples` ascending (total order, so NaNs cannot panic).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

/// The `q`-quantile (`0.0..=1.0`) of ascending `sorted`, linearly
/// interpolated between neighbours; `0.0` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted `samples` (sorts a copy).
pub fn median(samples: &[f64]) -> f64 {
    let mut copy = samples.to_vec();
    sort(&mut copy);
    quantile(&copy, 0.5)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Spread as the benchmark contract defines it: the distance between the
/// first and third quartile (Python's `statistics.quantiles(v, n=4)`,
/// exclusive method) as a share of the median.
pub fn quartile_spread(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        // exclusive method: position k*(n+1)/4, 1-based, clamped
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    let med = quantile(&v, 0.5);
    if med == 0.0 {
        return 0.0;
    }
    ((at(3) - at(1)) / med).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
