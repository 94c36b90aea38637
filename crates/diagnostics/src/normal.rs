//! The inverse standard-normal CDF and rank normalization — the
//! numerical underpinnings of the rank-normalized diagnostics.

/// The inverse standard normal CDF `Φ⁻¹(p)` (Acklam's rational
/// approximation, relative error < 1.15 × 10⁻⁹).
///
/// Returns `-∞`/`+∞` for `p = 0`/`p = 1` and NaN outside `[0, 1]`.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    if p.is_nan() || !(0.0..=1.0).contains(&p) {
        return f64::NAN;
    }
    if p == 0.0 {
        return f64::NEG_INFINITY;
    }
    if p == 1.0 {
        return f64::INFINITY;
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Replace every draw by the normal quantile of its fractional rank
/// (Blom's offset: `Φ⁻¹((r − 3/8)/(S + 1/4))`), pooled across chains —
/// the transformation behind rank-normalized `R̂` and bulk-ESS
/// (Vehtari et al. 2021). Ties get average ranks.
pub fn rank_normalize<C: AsRef<[f64]>>(chains: &[C]) -> Vec<Vec<f64>> {
    let total: usize = chains.iter().map(|c| c.as_ref().len()).sum();
    // (value, chain, position) sorted by value → average ranks for ties.
    let mut order: Vec<(f64, usize, usize)> = chains
        .iter()
        .enumerate()
        .flat_map(|(j, c)| c.as_ref().iter().enumerate().map(move |(i, &v)| (v, j, i)))
        .collect();
    order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite draws"));

    let mut ranks: Vec<Vec<f64>> = chains.iter().map(|c| vec![0.0; c.as_ref().len()]).collect();
    let mut k = 0;
    while k < order.len() {
        let mut k2 = k;
        while k2 + 1 < order.len() && order[k2 + 1].0 == order[k].0 {
            k2 += 1;
        }
        // 1-based average rank of the tie group [k, k2].
        let avg = (k + k2) as f64 / 2.0 + 1.0;
        for &(_, j, i) in &order[k..=k2] {
            ranks[j][i] = avg;
        }
        k = k2 + 1;
    }
    ranks
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|r| inverse_normal_cdf((r - 0.375) / (total as f64 + 0.25)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The standard normal cumulative distribution function `Φ(x)`,
    /// which the round-trip test inverts.
    ///
    /// Uses the Abramowitz & Stegun 7.1.26 rational approximation of `erf`
    /// (absolute error < 1.5 × 10⁻⁷), which is ample for rank statistics.
    fn normal_cdf(x: f64) -> f64 {
        let t = x / std::f64::consts::SQRT_2;
        0.5 * (1.0 + erf(t))
    }

    fn erf(x: f64) -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();
        let t = 1.0 / (1.0 + 0.327_591_1 * x);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        sign * (1.0 - poly * (-x * x).exp())
    }

    #[test]
    fn inverse_matches_known_quantiles() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.025) + 1.959_963_985).abs() < 1e-6);
        assert!((inverse_normal_cdf(0.841_344_746) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn inverse_handles_edges() {
        assert_eq!(inverse_normal_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(inverse_normal_cdf(1.0), f64::INFINITY);
        assert!(inverse_normal_cdf(-0.1).is_nan());
        assert!(inverse_normal_cdf(1.1).is_nan());
        assert!(inverse_normal_cdf(f64::NAN).is_nan());
    }

    #[test]
    fn cdf_and_inverse_are_mutual_inverses() {
        // Tolerance is bounded by the erf approximation (abs err ~1.5e-7)
        // amplified by 1/φ(x) in the tails.
        for &x in &[-3.0, -1.5, -0.2, 0.0, 0.7, 2.4] {
            let p = normal_cdf(x);
            assert!((inverse_normal_cdf(p) - x).abs() < 1e-4, "x = {x}");
        }
    }

    #[test]
    fn cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-4);
    }

    #[test]
    fn rank_normalize_is_monotone_and_centred() {
        let chains = [vec![10.0, -2.0, 5.0], vec![0.5, 100.0, -50.0]];
        let z = rank_normalize(&chains);
        // Ordering preserved: −50 < −2 < 0.5 < 5 < 10 < 100.
        assert!(z[1][2] < z[0][1]);
        assert!(z[0][1] < z[1][0]);
        assert!(z[1][0] < z[0][2]);
        assert!(z[0][2] < z[0][0]);
        assert!(z[0][0] < z[1][1]);
        // Symmetric ranks → roughly zero mean.
        let all: Vec<f64> = z.iter().flatten().copied().collect();
        let mean = all.iter().sum::<f64>() / all.len() as f64;
        assert!(mean.abs() < 1e-9);
    }

    #[test]
    fn rank_normalize_averages_ties() {
        let chains = [vec![1.0, 1.0, 2.0, 2.0]];
        let z = rank_normalize(&chains);
        assert_eq!(z[0][0], z[0][1]);
        assert_eq!(z[0][2], z[0][3]);
        assert!(z[0][0] < z[0][2]);
        assert!((z[0][0] + z[0][2]).abs() < 1e-9, "symmetric about 0");
    }
}
