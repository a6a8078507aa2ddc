//! Order statistics and the deterministic generator the workloads draw
//! from.

/// Samples a reported percentile needs beyond it before it is trusted:
/// with fewer, the "percentile" is one or two scheduler hiccups.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` of the samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Half-width, in percentile points, of the band [`quantile`] averages.
pub const BAND: f64 = 0.025;

/// Kernel estimate of percentile `p` of an ascending slice: the mean of
/// the order statistics whose rank lies within [`BAND`] of `p`.
///
/// Statement latencies are a mixture of narrow peaks, one per statement
/// class. A single order statistic that falls between two peaks jumps
/// from one to the other when a handful of samples move; the band mean
/// moves by that handful's share instead. With few samples the band
/// holds one rank and this is [`percentile`].
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = |q: f64| {
        let r = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
        r.clamp(1, sorted.len())
    };
    let band = &sorted[rank(p - BAND) - 1..rank(p + BAND)];
    band.iter().sum::<f64>() / band.len() as f64
}

/// The fewest samples that leave [`TAIL_SAMPLES`] beyond percentile `p`
/// (200 for p95).
pub fn sample_floor(p: f64) -> usize {
    (TAIL_SAMPLES as f64 / (1.0 - p)).ceil() as usize
}

/// Sort ascending in place and return the slice.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_by(f64::total_cmp);
    values
}

/// Median (nearest rank) of an unsorted sample; 0 when empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    percentile(sorted(&mut values), 0.5)
}

/// Geometric mean of the positive entries; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    let logs: Vec<f64> = values
        .iter()
        .filter(|v| **v > 0.0 && v.is_finite())
        .map(|v| v.ln())
        .collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Mean of `values` weighted by `weights` (same length); 0 when the
/// weights sum to 0.
pub fn weighted_mean(values: &[f64], weights: &[f64]) -> f64 {
    let total: f64 = weights.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    values.iter().zip(weights).map(|(v, w)| v * w).sum::<f64>() / total
}

/// `a / b`, or 0 when `b` is 0 — ratios of counters that may be idle.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// SplitMix64: a small seeded generator, so the statement lists depend
/// on `--seed` and on nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; distinct streams of
    /// one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.95), 190.0);
        assert_eq!(percentile(&v, 1.0), 200.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Exactly ten samples lie beyond p95 of 200.
        assert_eq!(v.iter().filter(|x| **x > percentile(&v, 0.95)).count(), 10);
    }

    #[test]
    fn quantile_averages_a_band_and_moves_smoothly() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // Ranks 95..=105 around the median, 185..=195 around p95.
        assert_eq!(quantile(&v, 0.5), 100.0);
        assert_eq!(quantile(&v, 0.95), 190.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), 2.0);
        // Two latency classes meeting at the median: moving two samples
        // across moves the estimate by their share of the band, where
        // the single order statistic jumps from one class to the other.
        let mut mix = vec![1.0; 100];
        mix.extend(vec![3.0; 100]);
        let mut tilted = vec![1.0; 98];
        tilted.extend(vec![3.0; 102]);
        assert_eq!(
            (percentile(&mix, 0.5), percentile(&tilted, 0.5)),
            (1.0, 3.0)
        );
        assert!((quantile(&mix, 0.5) - quantile(&tilted, 0.5)).abs() < 0.4);
    }

    #[test]
    fn sample_floor_keeps_ten_beyond() {
        assert_eq!(sample_floor(0.95), 200);
        assert_eq!(sample_floor(0.5), 20);
        assert_eq!(sample_floor(0.99), 1000);
    }

    #[test]
    fn means_and_ratios() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[0.0, -1.0]), 0.0);
        assert_eq!(weighted_mean(&[1.0, 3.0], &[1.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn rng_repeats_per_seed_and_differs_across_streams() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 1), |r, _| Some(r.next()))
            .collect();
        let c: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7, 2), |r, _| Some(r.next()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut deck: Vec<u32> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut deck);
        let mut back = deck.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<u32>>());
        assert_ne!(deck, back);
    }
}
