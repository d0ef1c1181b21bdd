//! Deterministic full-neighbourhood majority baseline.

use rand::RngCore;

use crate::kernel::ProtocolKind;
use crate::opinion::Opinion;
use crate::protocol::{resolve_majority, Protocol, TieRule, UpdateContext};

/// Local majority: every vertex reads its **entire** neighbourhood and adopts
/// the majority colour (ties resolved by the tie rule).
///
/// This is the deterministic limit of Best-of-k as `k → ∞` and serves as a
/// "full information" upper baseline: it converges extremely fast on dense
/// graphs but requires `deg(v)` reads per vertex per round instead of 3, the
/// communication cost the sampling protocols are designed to avoid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalMajority {
    tie_rule: TieRule,
}

impl LocalMajority {
    /// Local majority with the given tie rule.
    pub fn new(tie_rule: TieRule) -> Self {
        LocalMajority { tie_rule }
    }

    /// The conventional variant: ties keep the current opinion.
    pub fn keep_own() -> Self {
        LocalMajority::new(TieRule::KeepOwn)
    }
}

impl Default for LocalMajority {
    fn default() -> Self {
        LocalMajority::keep_own()
    }
}

impl Protocol for LocalMajority {
    fn name(&self) -> String {
        "local-majority (full neighbourhood)".into()
    }

    fn sample_size(&self) -> usize {
        0 // reads the whole neighbourhood rather than sampling
    }

    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion {
        let row = ctx.graph.neighbours(ctx.vertex);
        let mut blues = 0usize;
        for &w in row {
            blues += usize::from(ctx.previous.is_blue(w as usize));
        }
        resolve_majority(blues, row.len(), ctx.current, self.tie_rule, rng)
    }

    fn kind(&self) -> Option<ProtocolKind> {
        Some(ProtocolKind::LocalMajority(self.tie_rule))
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
    fn metadata() {
        let p = LocalMajority::keep_own();
        assert_eq!(p.sample_size(), 0);
        assert!(p.name().contains("local-majority"));
        assert_eq!(LocalMajority::default(), LocalMajority::keep_own());
    }

    #[test]
    fn deterministic_majority_is_followed() {
        let g = generators::complete(9);
        let mut rng = StdRng::seed_from_u64(0);
        let p = LocalMajority::keep_own();
        // 5 blue, 4 red: a red vertex sees 5 blue / 3 red neighbours.
        let opinions: Vec<Opinion> = (0..9)
            .map(|v| if v < 5 { Opinion::Blue } else { Opinion::Red })
            .collect();
        let ctx = UpdateContext {
            vertex: 8,
            current: Opinion::Red,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        assert_eq!(p.update(&ctx, &mut rng), Opinion::Blue);
        // A blue vertex sees 4 blue / 4 red: tie, keeps own (blue).
        let ctx_tie = UpdateContext {
            vertex: 0,
            current: Opinion::Blue,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        assert_eq!(p.update(&ctx_tie, &mut rng), Opinion::Blue);
    }

    #[test]
    fn random_tie_rule_flips_a_coin() {
        let g = generators::cycle(4).unwrap();
        let p = LocalMajority::new(TieRule::Random);
        // Vertex 0's neighbours are 1 (blue) and 3 (red): a tie.
        let opinions = vec![Opinion::Red, Opinion::Blue, Opinion::Red, Opinion::Red];
        let ctx = UpdateContext {
            vertex: 0,
            current: Opinion::Red,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 4000;
        let blue = (0..trials)
            .filter(|_| p.update(&ctx, &mut rng).is_blue())
            .count();
        let frac = blue as f64 / trials as f64;
        assert!((frac - 0.5).abs() < 0.05, "tie coin fraction {frac}");
    }

    #[test]
    fn converges_in_one_round_on_dense_unanimous_majorities() {
        // On the complete graph with a 2/3 blue majority every vertex sees a
        // blue majority, so one synchronous round reaches blue consensus.
        let g = generators::complete(30);
        let p = LocalMajority::keep_own();
        let opinions: Vec<Opinion> = (0..30)
            .map(|v| if v < 20 { Opinion::Blue } else { Opinion::Red })
            .collect();
        let mut rng = StdRng::seed_from_u64(2);
        for v in 0..30 {
            let ctx = UpdateContext {
                vertex: v,
                current: opinions[v],
                previous: &PackedSnapshot::from_opinions(&opinions),
                graph: &g,
            };
            assert_eq!(p.update(&ctx, &mut rng), Opinion::Blue);
        }
    }
}
