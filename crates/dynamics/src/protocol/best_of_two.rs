//! Best-of-Two baseline ([4], [8] in the paper).

use rand::RngCore;

use crate::kernel::ProtocolKind;
use crate::opinion::Opinion;
use crate::protocol::{count_blue_samples, resolve_majority, Protocol, TieRule, UpdateContext};

/// Best-of-2 ("two choices" voting): every vertex samples two neighbours with
/// replacement; if they agree it adopts their colour, otherwise the tie rule
/// decides (keep own opinion, the convention of Cooper–Elsässer–Radzik \[4],
/// or pick at random, in which case the protocol degenerates to the voter
/// model in distribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestOfTwo {
    tie_rule: TieRule,
}

impl BestOfTwo {
    /// Best-of-2 with the given tie rule.
    pub fn new(tie_rule: TieRule) -> Self {
        BestOfTwo { tie_rule }
    }

    /// The conventional variant: ties keep the current opinion.
    pub fn keep_own() -> Self {
        BestOfTwo::new(TieRule::KeepOwn)
    }

    /// The tie rule in use.
    pub fn tie_rule(&self) -> TieRule {
        self.tie_rule
    }
}

impl Default for BestOfTwo {
    fn default() -> Self {
        BestOfTwo::keep_own()
    }
}

impl Protocol for BestOfTwo {
    fn name(&self) -> String {
        match self.tie_rule {
            TieRule::KeepOwn => "best-of-2 (keep on tie)".into(),
            TieRule::Random => "best-of-2 (random tie)".into(),
        }
    }

    fn sample_size(&self) -> usize {
        2
    }

    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion {
        let blues = count_blue_samples(ctx, 2, rng);
        resolve_majority(blues, 2, ctx.current, self.tie_rule, rng)
    }

    fn kind(&self) -> Option<ProtocolKind> {
        Some(ProtocolKind::BestOfTwo(self.tie_rule))
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
    fn metadata_and_tie_rule() {
        assert!(BestOfTwo::keep_own().name().contains("keep"));
        assert!(BestOfTwo::new(TieRule::Random).name().contains("random"));
        assert_eq!(BestOfTwo::default().tie_rule(), TieRule::KeepOwn);
        assert_eq!(BestOfTwo::keep_own().sample_size(), 2);
    }

    #[test]
    fn unanimous_samples_override_current_opinion() {
        let g = generators::star(6).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let p = BestOfTwo::keep_own();
        let mut opinions = vec![Opinion::Blue; 6];
        opinions[0] = Opinion::Red;
        let ctx = UpdateContext {
            vertex: 0,
            current: Opinion::Red,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        for _ in 0..20 {
            assert_eq!(p.update(&ctx, &mut rng), Opinion::Blue);
        }
    }

    #[test]
    fn keep_own_update_probability_matches_formula() {
        // P(turn blue) = p² + 2p(1−p)·[current is blue].
        let n = 1500;
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
        let mut rng = StdRng::seed_from_u64(1);
        let protocol = BestOfTwo::keep_own();
        let trials = 30_000;

        // Red vertex: only the p² term.
        let ctx_red = UpdateContext {
            vertex: n - 1,
            current: Opinion::Red,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        let blue = (0..trials)
            .filter(|_| protocol.update(&ctx_red, &mut rng).is_blue())
            .count();
        let observed = blue as f64 / trials as f64;
        assert!(
            (observed - p_blue * p_blue).abs() < 0.01,
            "red vertex: observed {observed}"
        );

        // Blue vertex: p² + 2p(1−p).
        let ctx_blue = UpdateContext {
            vertex: 0,
            current: Opinion::Blue,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        let blue = (0..trials)
            .filter(|_| protocol.update(&ctx_blue, &mut rng).is_blue())
            .count();
        let observed = blue as f64 / trials as f64;
        let expected = p_blue * p_blue + 2.0 * p_blue * (1.0 - p_blue);
        assert!(
            (observed - expected).abs() < 0.012,
            "blue vertex: observed {observed}, expected {expected}"
        );
    }
}
