//! Per-chip manufacturing (process) variability.
//!
//! Paper §V: "different instances of the same nominal component execute
//! the same application with 15% of variation in the energy-consumption"
//! (citing the Eurora characterization). Variability enters through two
//! correlated lognormal factors: the leakage factor (slow/leaky vs fast/
//! tight silicon) and an efficiency factor on dynamic power. Parameters
//! are calibrated so a population of nominal nodes running the same job
//! shows an energy spread of roughly 15% (validated by experiment C2).

use rand::Rng;

/// The process "corner" of one chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessVariation {
    /// Multiplier on leakage power (lognormal around 1.0).
    pub leakage_factor: f64,
    /// Multiplier on effective capacitance / dynamic power.
    pub dynamic_factor: f64,
    /// Multiplier on achievable frequency (fast silicon clocks slightly
    /// higher at the same voltage; we use it for efficiency accounting,
    /// not overclocking).
    pub frequency_factor: f64,
}

impl ProcessVariation {
    /// The nominal (typical-typical) corner.
    pub(crate) fn nominal() -> Self {
        ProcessVariation {
            leakage_factor: 1.0,
            dynamic_factor: 1.0,
            frequency_factor: 1.0,
        }
    }

    /// Samples a chip from the population.
    ///
    /// Leakage is lognormal with σ ≈ 0.30 (leakage varies wildly between
    /// dies), dynamic power lognormal with σ ≈ 0.05, and the two are
    /// anti-correlated with frequency capability: leaky chips are fast.
    pub fn sample(rng: &mut impl Rng) -> Self {
        let z_leak = gaussian(rng);
        let z_dyn = gaussian(rng);
        let leakage_factor = (0.30 * z_leak - 0.045).exp();
        let dynamic_factor = (0.05 * z_dyn).exp();
        // fast silicon leaks more: positive correlation, small magnitude
        let frequency_factor = 1.0 + 0.02 * z_leak;
        ProcessVariation {
            leakage_factor,
            dynamic_factor,
            frequency_factor: frequency_factor.clamp(0.9, 1.1),
        }
    }

    /// Samples a deterministic population of `count` chips: chip `i`
    /// always gets the same corner for a given `seed`, independent of
    /// how (or on how many threads) the rest of the population is
    /// consumed. Cluster campaigns use this so per-node variability
    /// never depends on iteration order.
    pub fn population(seed: u64, count: usize) -> Vec<Self> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        (0..count)
            .map(|i| {
                // splitmix64 over (seed, index) gives an independent
                // stream per chip
                let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i as u64 + 1));
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^= z >> 31;
                Self::sample(&mut StdRng::seed_from_u64(z))
            })
            .collect()
    }
}

impl Default for ProcessVariation {
    fn default() -> Self {
        Self::nominal()
    }
}

/// Standard normal draw via Box–Muller.
fn gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn nominal_is_identity() {
        let v = ProcessVariation::nominal();
        assert_eq!(v.leakage_factor, 1.0);
        assert_eq!(v.dynamic_factor, 1.0);
    }

    #[test]
    fn population_statistics() {
        let mut rng = StdRng::seed_from_u64(1234);
        let samples: Vec<ProcessVariation> = (0..2000)
            .map(|_| ProcessVariation::sample(&mut rng))
            .collect();
        let mean_leak: f64 =
            samples.iter().map(|v| v.leakage_factor).sum::<f64>() / samples.len() as f64;
        assert!((mean_leak - 1.0).abs() < 0.05, "mean leakage {mean_leak}");
        let min = samples
            .iter()
            .map(|v| v.leakage_factor)
            .fold(f64::INFINITY, f64::min);
        let max = samples.iter().map(|v| v.leakage_factor).fold(0.0, f64::max);
        assert!(min < 0.7 && max > 1.5, "leakage spread [{min}, {max}]");
        // dynamic factor is tighter
        let dmin = samples
            .iter()
            .map(|v| v.dynamic_factor)
            .fold(f64::INFINITY, f64::min);
        let dmax = samples.iter().map(|v| v.dynamic_factor).fold(0.0, f64::max);
        assert!(dmin > 0.8 && dmax < 1.25, "dynamic spread [{dmin}, {dmax}]");
    }

    #[test]
    fn frequency_factor_clamped() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let v = ProcessVariation::sample(&mut rng);
            assert!((0.9..=1.1).contains(&v.frequency_factor));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = ProcessVariation::sample(&mut StdRng::seed_from_u64(9));
        let b = ProcessVariation::sample(&mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    #[test]
    fn population_is_deterministic_and_prefix_stable() {
        let a = ProcessVariation::population(42, 64);
        let b = ProcessVariation::population(42, 64);
        assert_eq!(a, b);
        // a smaller population is a prefix of a larger one: chip i's
        // corner does not depend on the cluster size
        let big = ProcessVariation::population(42, 256);
        assert_eq!(&big[..64], &a[..]);
        // different seeds give different silicon
        let c = ProcessVariation::population(43, 64);
        assert_ne!(a, c);
        // and the spread is real: not all chips identical
        assert!(a
            .iter()
            .any(|v| (v.leakage_factor - a[0].leakage_factor).abs() > 1e-6));
    }
}
