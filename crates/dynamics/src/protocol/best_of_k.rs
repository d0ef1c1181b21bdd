//! General Best-of-k voting for arbitrary sample size `k`.

use rand::RngCore;

use crate::kernel::ProtocolKind;
use crate::opinion::Opinion;
use crate::protocol::{count_blue_samples, resolve_majority, Protocol, TieRule, UpdateContext};

/// Best-of-k: sample `k` neighbours uniformly with replacement and adopt the
/// majority colour; the tie rule decides even-`k` ties.
///
/// Odd `k ≥ 5` is the regime of Abdullah & Draief (\[1] in the paper), whose
/// result needs a *large* initial bias; experiment E12 contrasts it with the
/// paper's `k = 3` at small `δ`.  `k = 1`, `2` and `3` reproduce the
/// dedicated protocols exactly (in distribution) and the tests check that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestOfK {
    k: usize,
    tie_rule: TieRule,
}

impl BestOfK {
    /// Best-of-`k` with the given tie rule; `k` must be at least 1.
    pub fn new(k: usize, tie_rule: TieRule) -> Self {
        assert!(k >= 1, "Best-of-k requires k >= 1");
        BestOfK { k, tie_rule }
    }

    /// Sample size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The tie rule in use.
    pub fn tie_rule(&self) -> TieRule {
        self.tie_rule
    }
}

impl Protocol for BestOfK {
    fn name(&self) -> String {
        match self.tie_rule {
            TieRule::KeepOwn => format!("best-of-{} (keep on tie)", self.k),
            TieRule::Random => format!("best-of-{} (random tie)", self.k),
        }
    }

    fn sample_size(&self) -> usize {
        self.k
    }

    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion {
        let blues = count_blue_samples(ctx, self.k, rng);
        resolve_majority(blues, self.k, ctx.current, self.tie_rule, rng)
    }

    fn kind(&self) -> Option<ProtocolKind> {
        Some(ProtocolKind::BestOfK {
            k: self.k,
            tie_rule: self.tie_rule,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::PackedSnapshot;
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "k >= 1")]
    fn rejects_zero_k() {
        BestOfK::new(0, TieRule::KeepOwn);
    }

    #[test]
    fn metadata() {
        let p = BestOfK::new(5, TieRule::KeepOwn);
        assert_eq!(p.k(), 5);
        assert_eq!(p.sample_size(), 5);
        assert!(p.name().contains("best-of-5"));
        assert_eq!(p.tie_rule(), TieRule::KeepOwn);
    }

    fn empirical_blue_probability(k: usize, p_blue: f64, current: Opinion, seed: u64) -> f64 {
        let n = 1500;
        let g = generators::complete(n);
        let blue_count = (n as f64 * p_blue).round() as usize;
        let opinions: Vec<Opinion> = (0..n)
            .map(|v| {
                if v < blue_count {
                    Opinion::Blue
                } else {
                    Opinion::Red
                }
            })
            .collect();
        let vertex = if current.is_blue() { 0 } else { n - 1 };
        let ctx = UpdateContext {
            vertex,
            current,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        let protocol = BestOfK::new(k, TieRule::KeepOwn);
        let mut rng = StdRng::seed_from_u64(seed);
        let trials = 30_000;
        (0..trials)
            .filter(|_| protocol.update(&ctx, &mut rng).is_blue())
            .count() as f64
            / trials as f64
    }

    #[test]
    fn k3_matches_the_paper_majority_map() {
        let observed = empirical_blue_probability(3, 0.3, Opinion::Red, 0);
        let expected = bo3_theory::binomial::best_of_three_blue(0.3);
        assert!((observed - expected).abs() < 0.01, "observed {observed}");
    }

    #[test]
    fn k5_suppresses_the_minority_harder_than_k3() {
        let k3 = empirical_blue_probability(3, 0.35, Opinion::Red, 1);
        let k5 = empirical_blue_probability(5, 0.35, Opinion::Red, 2);
        let k9 = empirical_blue_probability(9, 0.35, Opinion::Red, 3);
        assert!(k5 < k3, "k5 {k5} !< k3 {k3}");
        assert!(k9 < k5, "k9 {k9} !< k5 {k5}");
    }

    #[test]
    fn k1_matches_the_voter_model() {
        let observed = empirical_blue_probability(1, 0.3, Opinion::Red, 4);
        assert!((observed - 0.3).abs() < 0.012, "observed {observed}");
    }

    #[test]
    fn even_k_uses_the_tie_rule() {
        // On a star whose leaves are half blue / half red the centre with
        // keep-own never changes when the sample ties; with k = 2 and a red
        // centre the blue probability is exactly p².
        let observed = empirical_blue_probability(2, 0.5, Opinion::Red, 5);
        assert!((observed - 0.25).abs() < 0.012, "observed {observed}");
    }
}
