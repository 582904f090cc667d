//! The estimators every timed metric goes through.
//!
//! Interference on the shared reference host is one-sided: a neighbour can
//! only make a pass slower. A workload therefore ranks its passes once, by
//! its throughput, and reports the *quiet value* of each metric — the
//! median over the best quarter of the passes (see README, "Noise").

/// Median of `values` (mean of the two middle values when the count is
/// even). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Indices of the best ⌈n/4⌉ passes, ranked by `throughput` (higher is
/// better; ties keep the earlier pass). Empty when there are no passes.
pub fn quiet_passes(throughput: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..throughput.len()).collect();
    order.sort_by(|&a, &b| throughput[b].total_cmp(&throughput[a]).then(a.cmp(&b)));
    order.truncate(throughput.len().div_ceil(4));
    order
}

/// The quiet value of a per-pass metric: its median over the passes that
/// [`quiet_passes`] picked.
pub fn quiet_value(per_pass: &[f64], quiet: &[usize]) -> Option<f64> {
    let picked: Vec<f64> = quiet.iter().map(|&i| per_pass[i]).collect();
    median(&picked)
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending slice by nearest rank.
/// `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    Some(sorted[rank])
}

/// Mean of `values`; 0 when empty (a layer that did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The quartiles `(q1, q3)` of a sample, as Python's
/// `statistics.quantiles(values, n=4)` gives them (the driver's estimator).
/// `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Spread of a sample as a share of its median: the distance between its
/// quartiles ÷ its median. This is the noise record `compare` weighs
/// against a bound. `None` below two values or around a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// A seeded SplitMix64 stream: the benchmark's only randomness, so one
/// `--seed` fixes every request list and update batch.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, separated by `stream` so independent draws
    /// (request order, batch rows) do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quiet_passes_take_the_best_quarter_rounded_up() {
        assert!(quiet_passes(&[]).is_empty());
        assert_eq!(quiet_passes(&[5.0]), vec![0]);
        // n = 4 → one pass, n = 5 → two, n = 8 → two, n = 9 → three.
        assert_eq!(quiet_passes(&[1.0, 4.0, 2.0, 3.0]), vec![1]);
        assert_eq!(quiet_passes(&[1.0, 4.0, 2.0, 3.0, 5.0]), vec![4, 1]);
        assert_eq!(quiet_passes(&[8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), vec![0, 7]);
        assert_eq!(quiet_passes(&[1.0; 9]).len(), 3);
    }

    #[test]
    fn quiet_passes_break_ties_by_pass_order() {
        assert_eq!(quiet_passes(&[2.0, 2.0, 2.0, 2.0, 2.0]), vec![0, 1]);
    }

    #[test]
    fn quiet_value_is_the_median_over_the_picked_passes() {
        let throughput = [10.0, 40.0, 20.0, 30.0, 50.0];
        let latency = [9.0, 2.0, 7.0, 5.0, 1.0];
        let quiet = quiet_passes(&throughput);
        assert_eq!(quiet_value(&throughput, &quiet), Some(45.0));
        // Latency comes from the same passes, not from its own best ones.
        assert_eq!(quiet_value(&latency, &quiet), Some(1.5));
        assert_eq!(quiet_value(&[3.0], &quiet_passes(&[3.0])), Some(3.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[9], 0.99), Some(9));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&v, 0.5), Some(51));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&[5, 5, 5, 9], 0.5), Some(5));
    }

    #[test]
    fn quartiles_match_the_python_exclusive_method() {
        assert_eq!(quartiles(&[1.0]), None);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 4.0, 2.0]), Some((1.5, 4.5)));
        assert_eq!(quartile_spread(&ten), Some(1.0));
        assert_eq!(quartile_spread(&[4.0, 4.0, 4.0]), Some(0.0));
        assert_eq!(quartile_spread(&[]), None);
    }

    #[test]
    fn splitmix_is_a_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = SplitMix64::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut items: Vec<u32> = (0..50).collect();
        SplitMix64::new(7, 0).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
