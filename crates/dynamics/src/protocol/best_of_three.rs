//! The paper's protocol: Best-of-Three.

use rand::RngCore;

use crate::kernel::ProtocolKind;
use crate::opinion::Opinion;
use crate::protocol::{count_blue_samples, Protocol, UpdateContext};

/// Best-of-Three: each round every vertex samples three neighbours uniformly
/// **with replacement** and adopts the majority colour among the three
/// samples.  With an odd sample there is never a tie, so no tie rule is
/// needed — exactly the model of Section 2 of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestOfThree;

impl BestOfThree {
    /// Creates the protocol.
    pub fn new() -> Self {
        BestOfThree
    }
}

impl Protocol for BestOfThree {
    fn name(&self) -> String {
        "best-of-3".into()
    }

    fn sample_size(&self) -> usize {
        3
    }

    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion {
        let blues = count_blue_samples(ctx, 3, rng);
        if blues >= 2 {
            Opinion::Blue
        } else {
            Opinion::Red
        }
    }

    fn kind(&self) -> Option<ProtocolKind> {
        Some(ProtocolKind::BestOfThree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::PackedSnapshot;
    use bo3_graph::{generators, CsrGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ctx_on_star<'a>(
        graph: &'a CsrGraph,
        previous: &'a PackedSnapshot,
        vertex: usize,
    ) -> UpdateContext<'a> {
        UpdateContext {
            vertex,
            current: previous.get(vertex),
            previous,
            graph,
        }
    }

    #[test]
    fn metadata() {
        let p = BestOfThree::new();
        assert_eq!(p.name(), "best-of-3");
        assert_eq!(p.sample_size(), 3);
    }

    #[test]
    fn unanimous_neighbourhoods_are_deterministic() {
        let g = generators::star(8).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let p = BestOfThree::new();

        // All leaves blue: the centre must adopt blue.
        let mut opinions = vec![Opinion::Blue; 8];
        opinions[0] = Opinion::Red;
        let opinions = PackedSnapshot::from_opinions(&opinions);
        let ctx = ctx_on_star(&g, &opinions, 0);
        for _ in 0..20 {
            assert_eq!(p.update(&ctx, &mut rng), Opinion::Blue);
        }

        // All leaves red: the centre must adopt red even if it is blue.
        let mut opinions = vec![Opinion::Red; 8];
        opinions[0] = Opinion::Blue;
        let opinions = PackedSnapshot::from_opinions(&opinions);
        let ctx = ctx_on_star(&g, &opinions, 0);
        for _ in 0..20 {
            assert_eq!(p.update(&ctx, &mut rng), Opinion::Red);
        }
    }

    #[test]
    fn leaf_copies_the_centre() {
        // A leaf of the star has a single neighbour (the centre), so all
        // three samples hit it and the leaf adopts the centre's colour.
        let g = generators::star(5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let p = BestOfThree::new();
        let mut opinions = vec![Opinion::Blue; 5];
        opinions[0] = Opinion::Red;
        let opinions = PackedSnapshot::from_opinions(&opinions);
        let ctx = ctx_on_star(&g, &opinions, 3);
        assert_eq!(p.update(&ctx, &mut rng), Opinion::Red);
    }

    #[test]
    fn update_probability_matches_majority_formula() {
        // On the complete graph K_n with a fraction p of blue vertices, a red
        // vertex turns blue with probability ≈ 3p²(1−p) + p³ (sampling its
        // n−1 neighbours ≈ sampling the whole population for large n).
        let n = 2000;
        let g = generators::complete(n);
        let p_blue = 0.3;
        let blue_count = (n as f64 * p_blue) as usize;
        let opinions: Vec<Opinion> = (0..n)
            .map(|v| {
                if v < blue_count {
                    Opinion::Blue
                } else {
                    Opinion::Red
                }
            })
            .collect();
        let protocol = BestOfThree::new();
        let mut rng = StdRng::seed_from_u64(2);
        // Update the last (red) vertex many times.
        let ctx = UpdateContext {
            vertex: n - 1,
            current: Opinion::Red,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        let trials = 40_000;
        let mut blue_updates = 0usize;
        for _ in 0..trials {
            if protocol.update(&ctx, &mut rng).is_blue() {
                blue_updates += 1;
            }
        }
        let observed = blue_updates as f64 / trials as f64;
        let expected = bo3_theory::binomial::best_of_three_blue(p_blue);
        assert!(
            (observed - expected).abs() < 0.01,
            "observed {observed}, expected {expected}"
        );
    }
}
