//! The voter model (Best-of-1) baseline.

use rand::RngCore;

use crate::kernel::ProtocolKind;
use crate::opinion::Opinion;
use crate::protocol::{count_blue_samples, Protocol, UpdateContext};

/// Best-of-1, i.e. the classical voter model: every vertex copies the opinion
/// of a single uniformly random neighbour.
///
/// The paper recalls that this protocol reaches consensus on connected
/// non-bipartite graphs but the winning colour is only proportional to its
/// initial degree-weighted share — it does **not** amplify the majority, and
/// its consensus time is polynomial rather than (double) logarithmic.  This
/// is the baseline experiments E3 and E5 quantify against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Voter;

impl Voter {
    /// Creates the protocol.
    pub fn new() -> Self {
        Voter
    }
}

impl Protocol for Voter {
    fn name(&self) -> String {
        "voter (best-of-1)".into()
    }

    fn sample_size(&self) -> usize {
        1
    }

    fn update(&self, ctx: &UpdateContext<'_>, rng: &mut dyn RngCore) -> Opinion {
        if count_blue_samples(ctx, 1, rng) == 1 {
            Opinion::Blue
        } else {
            Opinion::Red
        }
    }

    fn kind(&self) -> Option<ProtocolKind> {
        Some(ProtocolKind::Voter)
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
        assert_eq!(Voter::new().name(), "voter (best-of-1)");
        assert_eq!(Voter::new().sample_size(), 1);
    }

    #[test]
    fn copies_a_neighbour_opinion() {
        let g = generators::cycle(6).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let p = Voter::new();
        // Vertex 0's neighbours are 1 and 5; make both blue.
        let mut opinions = vec![Opinion::Red; 6];
        opinions[1] = Opinion::Blue;
        opinions[5] = Opinion::Blue;
        let ctx = UpdateContext {
            vertex: 0,
            current: Opinion::Red,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        for _ in 0..10 {
            assert_eq!(p.update(&ctx, &mut rng), Opinion::Blue);
        }
    }

    #[test]
    fn adoption_probability_equals_neighbourhood_fraction() {
        // On the complete graph the probability of turning blue equals the
        // blue fraction among the other vertices — no amplification at all,
        // which is exactly what distinguishes the voter model from Best-of-3.
        let n = 1000;
        let g = generators::complete(n);
        let blue_count = 300;
        let opinions: Vec<Opinion> = (0..n)
            .map(|v| {
                if v < blue_count {
                    Opinion::Blue
                } else {
                    Opinion::Red
                }
            })
            .collect();
        let ctx = UpdateContext {
            vertex: n - 1,
            current: Opinion::Red,
            previous: &PackedSnapshot::from_opinions(&opinions),
            graph: &g,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let p = Voter::new();
        let trials = 30_000;
        let blue = (0..trials)
            .filter(|_| p.update(&ctx, &mut rng).is_blue())
            .count();
        let observed = blue as f64 / trials as f64;
        let expected = blue_count as f64 / (n - 1) as f64;
        assert!((observed - expected).abs() < 0.01, "observed {observed}");
    }
}
