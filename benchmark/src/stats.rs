//! Order statistics, the seeded generator every input is drawn from, and
//! the Poisson arrival schedule.

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `p` of the sample at or below it. Empty samples read 0.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Sort ascending (total order, so a stray NaN cannot panic the run).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of a sample; sorts in place. Even sizes average the middle two.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sort(values);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Mean of the middle half of an ascending sample, from the 25th to the
/// 75th percentile (the interquartile mean). A handful of samples far out
/// in a tail do not move it, as they do not move the median; where the
/// sample has two modes and the median stands on the step between them,
/// it moves in proportion to the mix, as the mean does. Empty samples
/// read 0.
pub fn midmean(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    let middle = &sorted[n / 4..n - n / 4];
    if middle.is_empty() {
        return 0.0;
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Median of `reps` evaluations of `f`.
pub fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let mut values: Vec<f64> = (0..reps).map(|_| f()).collect();
    median(&mut values)
}

/// SplitMix64: the one seeded source behind pools, shuffles and arrival
/// schedules. The served program never sees it, only what it generated.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose: `stream` separates the pool, the
    /// shuffle and the schedule drawn from the same `--seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn next_f64(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias at these sizes is far
    /// below anything the benchmark resolves).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Arrival offsets, in nanoseconds from the start of a pass, of `n`
/// Poisson arrivals at `rate_rps`: a pure function of the seed. The
/// exponential gaps are rescaled so the last arrival falls exactly at
/// `n / rate_rps` — every seed offers the same load over the same span,
/// and only the spacing inside it is random.
pub fn poisson_schedule(seed: u64, rate_rps: f64, n: usize) -> Vec<u64> {
    let mut rng = Rng::new(seed, 3);
    let mut t = 0.0f64;
    let offsets: Vec<f64> = (0..n)
        .map(|_| {
            t += -rng.next_f64().ln();
            t
        })
        .collect();
    let scale = n as f64 / rate_rps / t.max(f64::MIN_POSITIVE) * 1e9;
    offsets.iter().map(|&o| (o * scale) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(
            samples_beyond(558, 0.99),
            5,
            "a nuts run: p99 is not supported"
        );
        assert_eq!(samples_beyond(558, 0.95), 27);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn midmean_ignores_both_tails_and_follows_the_mix() {
        let mut v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(midmean(&v), 4.5, "the mean of 3..=6");
        v[7] = 10_000.0;
        assert_eq!(midmean(&v), 4.5, "one timeout in the tail changes nothing");
        // Two modes, 3 ms and 43 ms: one more late request in twenty moves
        // the median from one mode to the other and the midmean by a tenth.
        let mix = |late: usize| -> Vec<f64> {
            (0..20)
                .map(|i| if i < 20 - late { 3.0 } else { 43.0 })
                .collect()
        };
        assert_eq!(percentile(&mix(10), 0.5), 3.0);
        assert_eq!(percentile(&mix(11), 0.5), 43.0);
        assert_eq!(midmean(&mix(10)), 23.0);
        assert_eq!(midmean(&mix(11)), 27.0);
        assert_eq!(midmean(&[]), 0.0);
        assert_eq!(midmean(&[7.0]), 7.0);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_schedule(7, 100.0, 500);
        assert_eq!(a, poisson_schedule(7, 100.0, 500));
        assert_ne!(a, poisson_schedule(8, 100.0, 500));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "arrivals ascend");
        // 500 arrivals at 100 rps span exactly five seconds.
        let last = *a.last().unwrap() as f64 / 1e9;
        assert!((last - 5.0).abs() < 1e-6, "last arrival at {last}");
    }

    #[test]
    fn rng_streams_differ_and_repeat() {
        let draw = |seed, stream| Rng::new(seed, stream).next_u64();
        assert_eq!(draw(1, 1), draw(1, 1));
        assert_ne!(draw(1, 1), draw(1, 2));
        assert_ne!(draw(1, 1), draw(2, 1));
        let x = Rng::new(5, 0).next_f64();
        assert!(x > 0.0 && x < 1.0);
    }
}
