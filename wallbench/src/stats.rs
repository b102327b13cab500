//! Order statistics over samples.

use std::collections::BTreeMap;

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `q`-quantile of each class's samples, from `(class, sample)` pairs.
pub fn class_quantiles(samples: &[(usize, f64)], q: f64) -> BTreeMap<usize, f64> {
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(c, x) in samples {
        by_class.entry(c).or_default().push(x);
    }
    by_class
        .into_iter()
        .map(|(c, xs)| (c, quantile(&xs, q)))
        .collect()
}

/// A mix's typical latency: the mean over classes of each class's
/// median. Weighting classes equally keeps the mix the same whatever the
/// number of samples per class.
pub fn mix_latency(samples: &[(usize, f64)]) -> f64 {
    mean(
        &class_quantiles(samples, 0.5)
            .into_values()
            .collect::<Vec<_>>(),
    )
}

/// A mix's typical latency measured in windows: [`mix_latency`] over all
/// of them, scaled by how the median window compares with it. Each
/// window's relative latency is the median over its samples of sample over
/// class median. A disturbance that slows fewer than half of the windows
/// thus moves the result little, while a change that slows every window
/// moves it in full.
pub fn windowed_mix_latency(windows: &[Vec<(usize, f64)>]) -> f64 {
    let all: Vec<(usize, f64)> = windows.concat();
    let medians = class_quantiles(&all, 0.5);
    let relative: Vec<f64> = windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(&w.iter().map(|(c, x)| x / medians[c]).collect::<Vec<_>>()))
        .collect();
    mean(&medians.into_values().collect::<Vec<_>>()) * median(&relative)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 10.0);
        assert_eq!(quantile(&xs, 0.95), 19.0);
        assert_eq!(quantile(&xs, 1.0), 20.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn mix_latency_weights_classes_equally() {
        // Class 0: ten samples 10..=19 plus a slow stretch; class 1: one
        // sample. Each class contributes its own median once.
        let mut xs: Vec<(usize, f64)> = (10..20).map(|x| (0, f64::from(x))).collect();
        xs.extend([(0, 90.0), (0, 95.0), (1, 40.0)]);
        let q = class_quantiles(&xs, 0.5);
        assert_eq!(q[&0], 15.0);
        assert_eq!(q[&1], 40.0);
        assert_eq!(mix_latency(&xs), 27.5);
    }

    #[test]
    fn windowed_mix_latency_ignores_a_minority_of_slow_windows() {
        let quiet = vec![(0, 10.0), (1, 20.0)];
        let slow = vec![(0, 20.0), (1, 40.0)];
        let windows = vec![quiet.clone(), quiet.clone(), slow.clone()];
        assert_eq!(mix_latency(&windows.concat()), 15.0);
        assert_eq!(windowed_mix_latency(&windows), 15.0);
        // A slow majority is the typical latency.
        let windows = vec![quiet, slow.clone(), slow];
        assert_eq!(windowed_mix_latency(&windows), 30.0);
    }
}
