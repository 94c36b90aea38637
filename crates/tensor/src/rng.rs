//! Counter-based random number generation.
//!
//! Batched MCMC needs a random stream per batch member that is (a)
//! independent across members, (b) insensitive to the *order* in which
//! the runtime happens to schedule basic blocks, and (c) identical whether
//! a member runs alone or inside a batch. A counter-based generator
//! delivers all three: each draw is a pure hash of
//! `(seed, batch_member, counter)`, and programs thread the counter
//! through their control flow explicitly (so it stacks correctly across
//! recursion, like any other program variable).
//!
//! The mixing function is SplitMix64 (Steele et al., "Fast splittable
//! pseudorandom number generators"), which passes BigCrush when used as a
//! one-shot mixer and is trivially reproducible.

use crate::tensor::Tensor;

/// Deterministic counter-based random source.
///
/// # Examples
///
/// ```
/// use autobatch_tensor::CounterRng;
///
/// let rng = CounterRng::new(42);
/// let a = rng.uniform(7, 0);
/// let b = rng.uniform(7, 0);
/// assert_eq!(a, b, "same (member, counter) gives the same draw");
/// assert_ne!(a, rng.uniform(7, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
}

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl CounterRng {
    /// Create a source with the given global seed.
    pub fn new(seed: u64) -> CounterRng {
        CounterRng { seed }
    }

    #[inline]
    fn mix(&self, member: u64, counter: i64, salt: u64) -> u64 {
        // Three rounds of mixing decorrelate the structured inputs.
        let a = splitmix64(self.seed ^ splitmix64(member.wrapping_add(0xA5A5_A5A5)));
        let b = splitmix64(counter as u64 ^ splitmix64(salt));
        splitmix64(a ^ b.rotate_left(17))
    }

    /// One uniform draw in `[0, 1)` for `(member, counter)`.
    #[inline]
    pub fn uniform(&self, member: u64, counter: i64) -> f64 {
        // 53 random mantissa bits.
        let bits = self.mix(member, counter, 0x0) >> 11;
        bits as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One standard normal draw for `(member, counter)` via Box–Muller.
    #[inline]
    pub fn normal(&self, member: u64, counter: i64) -> f64 {
        let u1 = {
            let bits = self.mix(member, counter, 0x1) >> 11;
            // Nudge away from zero so ln is finite.
            (bits as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
        };
        let u2 = {
            let bits = self.mix(member, counter, 0x2) >> 11;
            bits as f64 * (1.0 / (1u64 << 53) as f64)
        };
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// One standard exponential draw for `(member, counter)`.
    #[inline]
    pub fn exponential(&self, member: u64, counter: i64) -> f64 {
        let u = {
            let bits = self.mix(member, counter, 0x3) >> 11;
            (bits as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
        };
        -u.ln()
    }

    /// Batched standard normal draws: element `[b, ..]` uses member `b`
    /// and the counter `counters[b]`, with trailing element index folded
    /// into the counter stream.
    ///
    /// `counters` has length `Z`; the result has shape `[Z, elem..]`.
    pub fn normal_batch(&self, counters: &[i64], elem: &[usize]) -> Tensor {
        let members: Vec<u64> = (0..counters.len() as u64).collect();
        self.normal_batch_for(&members, counters, elem)
    }

    /// Batched uniform draws with explicit member ids. Row `i` uses
    /// `(members[i], counters[i])`, so a gathered sub-batch draws exactly
    /// what the full batch would have drawn for those members.
    pub fn uniform_batch_for(&self, members: &[u64], counters: &[i64], elem: &[usize]) -> Tensor {
        self.batch(members, counters, elem, |m, c| self.uniform(m, c))
    }

    /// Batched normal draws with explicit member ids; see
    /// [`CounterRng::uniform_batch_for`].
    pub fn normal_batch_for(&self, members: &[u64], counters: &[i64], elem: &[usize]) -> Tensor {
        self.batch(members, counters, elem, |m, c| self.normal(m, c))
    }

    /// Batched exponential draws with explicit member ids; see
    /// [`CounterRng::uniform_batch_for`].
    pub fn exponential_batch_for(
        &self,
        members: &[u64],
        counters: &[i64],
        elem: &[usize],
    ) -> Tensor {
        self.batch(members, counters, elem, |m, c| self.exponential(m, c))
    }

    fn batch<F: Fn(u64, i64) -> f64>(
        &self,
        members: &[u64],
        counters: &[i64],
        elem: &[usize],
        f: F,
    ) -> Tensor {
        debug_assert_eq!(members.len(), counters.len());
        let el: usize = elem.iter().product();
        let z = counters.len();
        let mut out = Vec::with_capacity(z * el);
        for (&m, &c) in members.iter().zip(counters) {
            for e in 0..el {
                // Fold the element index into the counter stream so a
                // vector draw consumes logically distinct counters.
                out.push(f(m, c.wrapping_mul(1_000_003).wrapping_add(e as i64)));
            }
        }
        let mut shape = Vec::with_capacity(elem.len() + 1);
        shape.push(z);
        shape.extend_from_slice(elem);
        Tensor::from_f64(&out, &shape).expect("constructed with matching volume")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_and_member_independent() {
        let rng = CounterRng::new(7);
        assert_eq!(rng.uniform(0, 0), rng.uniform(0, 0));
        assert_ne!(rng.uniform(0, 0), rng.uniform(1, 0));
        assert_ne!(rng.uniform(0, 0), rng.uniform(0, 1));
        assert_ne!(CounterRng::new(8).uniform(0, 0), rng.uniform(0, 0));
    }

    #[test]
    fn uniform_in_unit_interval() {
        let rng = CounterRng::new(3);
        for c in 0..1000 {
            let u = rng.uniform(5, c);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_mean_reasonable() {
        let rng = CounterRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|c| rng.uniform(0, c)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn normal_moments_reasonable() {
        let rng = CounterRng::new(13);
        let n = 20_000;
        let xs: Vec<f64> = (0..n).map(|c| rng.normal(0, c)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn exponential_mean_reasonable() {
        let rng = CounterRng::new(17);
        let n = 20_000;
        let mean: f64 = (0..n).map(|c| rng.exponential(0, c)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean = {mean}");
        for c in 0..100 {
            assert!(rng.exponential(0, c) >= 0.0);
        }
    }

    #[test]
    fn batch_matches_scalar_draws() {
        let rng = CounterRng::new(21);
        let t = rng.uniform_batch_for(&[0, 1], &[5, 9], &[]);
        assert_eq!(t.shape(), &[2]);
        let v = t.as_f64().unwrap();
        assert_eq!(v[0], rng.uniform(0, 5_000_015)); // 5 * 1_000_003 + 0
        assert_eq!(v[1], rng.uniform(1, 9_000_027));
    }

    #[test]
    fn batch_for_matches_full_batch_rows() {
        // Drawing for members {0, 2} out of a batch of 3 gives exactly
        // the rows those members would get in the full batch.
        let rng = CounterRng::new(5);
        let full = rng.normal_batch(&[10, 11, 12], &[2]);
        let sub = rng.normal_batch_for(&[0, 2], &[10, 12], &[2]);
        let f = full.as_f64().unwrap();
        let s = sub.as_f64().unwrap();
        assert_eq!(&s[0..2], &f[0..2]);
        assert_eq!(&s[2..4], &f[4..6]);
    }

    #[test]
    fn batch_vector_shape() {
        let rng = CounterRng::new(21);
        let t = rng.normal_batch(&[0, 1, 2], &[4]);
        assert_eq!(t.shape(), &[3, 4]);
        // All 12 draws distinct with overwhelming probability.
        let v = t.as_f64().unwrap();
        let mut sorted = v.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        assert_eq!(sorted.len(), 12);
    }
}
