//! Initial opinion configurations.
//!
//! Theorem 1 assumes every vertex is independently blue with probability
//! `1/2 − δ`; the other schemes here (exact counts, placement by degree or by
//! block) exist to probe how much that independence assumption matters —
//! the paper explicitly notes that the expander-based analyses (\[5]) work in
//! an adversarial-placement setting while its own proof exploits the i.i.d.
//! start.

use rand::Rng;

use bo3_graph::{CsrGraph, Topology};

use crate::error::{DynamicsError, Result};
use crate::opinion::{Configuration, Opinion};

/// A recipe for the initial configuration `ξ₀`.
#[derive(Debug, Clone, PartialEq)]
pub enum InitialCondition {
    /// The paper's model: each vertex is blue independently with probability
    /// `1/2 − delta` (red otherwise).
    BernoulliWithBias {
        /// The red bias `δ ∈ (0, 1/2]`; blue probability is `1/2 − δ`.
        delta: f64,
    },
    /// Each vertex is blue independently with the given probability.
    Bernoulli {
        /// Blue probability in `[0, 1]`.
        blue_probability: f64,
    },
    /// Exactly `blue` vertices are blue, chosen uniformly at random.
    ExactCount {
        /// Number of blue vertices.
        blue: usize,
    },
    /// All vertices red.
    AllRed,
    /// All vertices blue.
    AllBlue,
    /// The `blue` vertices of **highest degree** are blue — an adversarial
    /// placement that concentrates the minority where it is most influential.
    HighestDegreeBlue {
        /// Number of blue vertices.
        blue: usize,
    },
    /// The `blue` vertices of **lowest degree** are blue.
    LowestDegreeBlue {
        /// Number of blue vertices.
        blue: usize,
    },
    /// A fixed set of vertices is blue (e.g. one block of an SBM).
    ExplicitBlue {
        /// The vertices initially blue.
        vertices: Vec<usize>,
    },
    /// The first `blue` vertices (ids `0..blue`) are blue — combined with the
    /// block-numbered SBM/barbell generators this paints whole communities.
    PrefixBlue {
        /// Number of blue vertices.
        blue: usize,
    },
}

impl InitialCondition {
    /// Instantiates the initial configuration on `graph`.
    pub fn sample<R: Rng + ?Sized>(&self, graph: &CsrGraph, rng: &mut R) -> Result<Configuration> {
        match self {
            InitialCondition::HighestDegreeBlue { blue } => by_degree(graph, *blue, true),
            InitialCondition::LowestDegreeBlue { blue } => by_degree(graph, *blue, false),
            other => other.sample_n(graph.num_vertices(), rng),
        }
    }

    /// Instantiates the initial configuration on any [`Topology`] — the
    /// entry point the unified engine's Monte-Carlo driver uses for every
    /// spec variant.
    ///
    /// Graph-free schemes delegate to [`InitialCondition::sample_n`]
    /// (consuming `rng` identically, so seeded runs agree across entry
    /// points).  The degree-ranked placements consume no randomness and
    /// resolve through, in order:
    ///
    /// * the materialised degree sequence, when
    ///   [`Topology::as_graph`] yields one — exactly
    ///   [`InitialCondition::sample`];
    /// * the topology's [`Topology::degree_oracle`] otherwise — exact
    ///   `O(#classes)` rank arithmetic for the closed-form families, and the
    ///   concentration-window answer for hash-defined ones: all degrees
    ///   share one window except with the oracle's stated failure
    ///   probability, so the canonical end-of-id-space choices (prefix for
    ///   highest, suffix for lowest) are as adversarial as any certifiable
    ///   ranking — but they are *not* the realised degree ranks; comparing
    ///   against those requires materialising the spec.  **No `Θ(n)` degree
    ///   scan happens on any path.**
    pub fn sample_topology<T: Topology, R: Rng + ?Sized>(
        &self,
        topo: &T,
        rng: &mut R,
    ) -> Result<Configuration> {
        match self {
            InitialCondition::HighestDegreeBlue { blue } => by_degree_topology(topo, *blue, true),
            InitialCondition::LowestDegreeBlue { blue } => by_degree_topology(topo, *blue, false),
            other => other.sample_n(topo.n(), rng),
        }
    }

    /// Instantiates the initial configuration on `n` vertices without a
    /// materialised graph — the entry point for implicit-topology runs,
    /// where `n` may be far past any allocatable adjacency.
    ///
    /// Every scheme except the degree-ranked placements is a pure function
    /// of `n` (and the RNG); the degree-ranked ones need a graph to rank and
    /// return an error here.  For non-degree schemes this consumes `rng`
    /// exactly like [`InitialCondition::sample`], so seeded runs agree
    /// across the two entry points.
    pub fn sample_n<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Result<Configuration> {
        match self {
            InitialCondition::BernoulliWithBias { delta } => {
                // NaN fails the first comparison and is rejected too.
                let delta_valid = *delta > 0.0 && *delta <= 0.5;
                if !delta_valid {
                    return Err(DynamicsError::InvalidParameter {
                        reason: format!("delta must lie in (0, 1/2], got {delta}"),
                    });
                }
                bernoulli(n, 0.5 - delta, rng)
            }
            InitialCondition::Bernoulli { blue_probability } => {
                if !(0.0..=1.0).contains(blue_probability) || blue_probability.is_nan() {
                    return Err(DynamicsError::InvalidParameter {
                        reason: format!(
                            "blue probability must lie in [0,1], got {blue_probability}"
                        ),
                    });
                }
                bernoulli(n, *blue_probability, rng)
            }
            InitialCondition::ExactCount { blue } => {
                if *blue > n {
                    return Err(DynamicsError::InvalidParameter {
                        reason: format!("cannot colour {blue} of {n} vertices blue"),
                    });
                }
                // Partial Fisher–Yates over the vertex ids.
                let mut ids: Vec<usize> = (0..n).collect();
                for i in 0..*blue {
                    let j = rng.gen_range(i..n);
                    ids.swap(i, j);
                }
                let mut cfg = Configuration::all_red(n);
                for &v in &ids[..*blue] {
                    cfg.set(v, Opinion::Blue);
                }
                Ok(cfg)
            }
            InitialCondition::AllRed => Ok(Configuration::all_red(n)),
            InitialCondition::AllBlue => Ok(Configuration::all_blue(n)),
            InitialCondition::HighestDegreeBlue { .. }
            | InitialCondition::LowestDegreeBlue { .. } => Err(DynamicsError::InvalidParameter {
                reason: format!(
                    "{} ranks vertices by degree, which a bare vertex count cannot \
                         provide; use InitialCondition::sample (materialised graph) or \
                         InitialCondition::sample_topology (degree oracle)",
                    self.label()
                ),
            }),
            InitialCondition::ExplicitBlue { vertices } => {
                let mut cfg = Configuration::all_red(n);
                for &v in vertices {
                    if v >= n {
                        return Err(DynamicsError::InvalidParameter {
                            reason: format!("blue vertex {v} out of range for {n} vertices"),
                        });
                    }
                    cfg.set(v, Opinion::Blue);
                }
                Ok(cfg)
            }
            InitialCondition::PrefixBlue { blue } => {
                if *blue > n {
                    return Err(DynamicsError::InvalidParameter {
                        reason: format!("cannot colour {blue} of {n} vertices blue"),
                    });
                }
                let mut cfg = Configuration::all_red(n);
                for v in 0..*blue {
                    cfg.set(v, Opinion::Blue);
                }
                Ok(cfg)
            }
        }
    }

    /// A short label for experiment reports.
    pub fn label(&self) -> String {
        match self {
            InitialCondition::BernoulliWithBias { delta } => format!("bernoulli(delta={delta})"),
            InitialCondition::Bernoulli { blue_probability } => {
                format!("bernoulli(p_blue={blue_probability})")
            }
            InitialCondition::ExactCount { blue } => format!("exact(blue={blue})"),
            InitialCondition::AllRed => "all_red".into(),
            InitialCondition::AllBlue => "all_blue".into(),
            InitialCondition::HighestDegreeBlue { blue } => format!("highest_degree(blue={blue})"),
            InitialCondition::LowestDegreeBlue { blue } => format!("lowest_degree(blue={blue})"),
            InitialCondition::ExplicitBlue { vertices } => {
                format!("explicit(|B|={})", vertices.len())
            }
            InitialCondition::PrefixBlue { blue } => format!("prefix(blue={blue})"),
        }
    }
}

fn bernoulli<R: Rng + ?Sized>(n: usize, p_blue: f64, rng: &mut R) -> Result<Configuration> {
    let mut opinions = Vec::with_capacity(n);
    for _ in 0..n {
        opinions.push(if rng.gen::<f64>() < p_blue {
            Opinion::Blue
        } else {
            Opinion::Red
        });
    }
    Ok(Configuration::new(opinions))
}

/// Degree-ranked placement on an arbitrary topology: materialised degrees
/// when available, the degree oracle otherwise — never a degree scan.
fn by_degree_topology<T: Topology>(topo: &T, blue: usize, highest: bool) -> Result<Configuration> {
    if let Some(graph) = topo.as_graph() {
        return by_degree(graph, blue, highest);
    }
    let n = topo.n();
    if blue > n {
        return Err(DynamicsError::InvalidParameter {
            reason: format!("cannot colour {blue} of {n} vertices blue"),
        });
    }
    let Some(oracle) = topo.degree_oracle() else {
        return Err(DynamicsError::InvalidParameter {
            reason: format!(
                "{} provides neither materialised degrees nor a degree oracle; \
                 cannot place degree-ranked opinions",
                topo.label()
            ),
        });
    };
    let mut cfg = Configuration::all_red(n);
    for range in oracle.ranked_vertices(blue, highest) {
        for v in range {
            cfg.set(v, Opinion::Blue);
        }
    }
    Ok(cfg)
}

fn by_degree(graph: &CsrGraph, blue: usize, highest: bool) -> Result<Configuration> {
    let n = graph.num_vertices();
    if blue > n {
        return Err(DynamicsError::InvalidParameter {
            reason: format!("cannot colour {blue} of {n} vertices blue"),
        });
    }
    let mut by_deg: Vec<usize> = (0..n).collect();
    if highest {
        by_deg.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    } else {
        by_deg.sort_by_key(|&v| graph.degree(v));
    }
    let mut cfg = Configuration::all_red(n);
    for &v in &by_deg[..blue] {
        cfg.set(v, Opinion::Blue);
    }
    Ok(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bernoulli_with_bias_validates_delta() {
        let g = generators::complete(10);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(InitialCondition::BernoulliWithBias { delta: 0.0 }
            .sample(&g, &mut rng)
            .is_err());
        assert!(InitialCondition::BernoulliWithBias { delta: 0.7 }
            .sample(&g, &mut rng)
            .is_err());
        assert!(InitialCondition::BernoulliWithBias { delta: 0.2 }
            .sample(&g, &mut rng)
            .is_ok());
    }

    #[test]
    fn bernoulli_bias_concentrates_near_expectation() {
        let g = generators::complete(20_000);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = InitialCondition::BernoulliWithBias { delta: 0.1 }
            .sample(&g, &mut rng)
            .unwrap();
        let frac = cfg.blue_fraction();
        assert!((frac - 0.4).abs() < 0.02, "blue fraction {frac}");
    }

    #[test]
    fn bernoulli_probability_validation_and_extremes() {
        let g = generators::complete(50);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(InitialCondition::Bernoulli {
            blue_probability: 1.4
        }
        .sample(&g, &mut rng)
        .is_err());
        let all_blue = InitialCondition::Bernoulli {
            blue_probability: 1.0,
        }
        .sample(&g, &mut rng)
        .unwrap();
        assert_eq!(all_blue.blue_count(), 50);
        let all_red = InitialCondition::Bernoulli {
            blue_probability: 0.0,
        }
        .sample(&g, &mut rng)
        .unwrap();
        assert_eq!(all_red.blue_count(), 0);
    }

    #[test]
    fn exact_count_is_exact() {
        let g = generators::complete(100);
        let mut rng = StdRng::seed_from_u64(3);
        for &blue in &[0usize, 1, 37, 100] {
            let cfg = InitialCondition::ExactCount { blue }
                .sample(&g, &mut rng)
                .unwrap();
            assert_eq!(cfg.blue_count(), blue);
        }
        assert!(InitialCondition::ExactCount { blue: 101 }
            .sample(&g, &mut rng)
            .is_err());
    }

    #[test]
    fn exact_count_placement_varies_with_seed() {
        let g = generators::complete(50);
        let mut rng1 = StdRng::seed_from_u64(4);
        let mut rng2 = StdRng::seed_from_u64(5);
        let a = InitialCondition::ExactCount { blue: 10 }
            .sample(&g, &mut rng1)
            .unwrap();
        let b = InitialCondition::ExactCount { blue: 10 }
            .sample(&g, &mut rng2)
            .unwrap();
        assert_ne!(a.blue_vertices(), b.blue_vertices());
    }

    #[test]
    fn all_red_and_all_blue() {
        let g = generators::complete(7);
        let mut rng = StdRng::seed_from_u64(6);
        assert_eq!(
            InitialCondition::AllRed
                .sample(&g, &mut rng)
                .unwrap()
                .blue_count(),
            0
        );
        assert_eq!(
            InitialCondition::AllBlue
                .sample(&g, &mut rng)
                .unwrap()
                .blue_count(),
            7
        );
    }

    #[test]
    fn degree_based_placement_targets_the_right_vertices() {
        let g = generators::star(10).unwrap(); // vertex 0 is the hub
        let mut rng = StdRng::seed_from_u64(7);
        let high = InitialCondition::HighestDegreeBlue { blue: 1 }
            .sample(&g, &mut rng)
            .unwrap();
        assert_eq!(high.blue_vertices(), vec![0]);
        let low = InitialCondition::LowestDegreeBlue { blue: 2 }
            .sample(&g, &mut rng)
            .unwrap();
        assert!(!low.blue_vertices().contains(&0));
        assert_eq!(low.blue_count(), 2);
        assert!(InitialCondition::HighestDegreeBlue { blue: 11 }
            .sample(&g, &mut rng)
            .is_err());
    }

    #[test]
    fn explicit_and_prefix_placement() {
        let g = generators::complete(10);
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = InitialCondition::ExplicitBlue {
            vertices: vec![2, 5, 7],
        }
        .sample(&g, &mut rng)
        .unwrap();
        assert_eq!(cfg.blue_vertices(), vec![2, 5, 7]);
        assert!(InitialCondition::ExplicitBlue { vertices: vec![99] }
            .sample(&g, &mut rng)
            .is_err());

        let prefix = InitialCondition::PrefixBlue { blue: 4 }
            .sample(&g, &mut rng)
            .unwrap();
        assert_eq!(prefix.blue_vertices(), vec![0, 1, 2, 3]);
        assert!(InitialCondition::PrefixBlue { blue: 11 }
            .sample(&g, &mut rng)
            .is_err());
    }

    #[test]
    fn sample_n_matches_sample_for_graph_free_schemes() {
        let g = generators::complete(64);
        for cond in [
            InitialCondition::BernoulliWithBias { delta: 0.1 },
            InitialCondition::Bernoulli {
                blue_probability: 0.3,
            },
            InitialCondition::ExactCount { blue: 20 },
            InitialCondition::AllRed,
            InitialCondition::AllBlue,
            InitialCondition::ExplicitBlue {
                vertices: vec![1, 5],
            },
            InitialCondition::PrefixBlue { blue: 7 },
        ] {
            let mut a = StdRng::seed_from_u64(42);
            let mut b = StdRng::seed_from_u64(42);
            let via_graph = cond.sample(&g, &mut a).unwrap();
            let via_n = cond.sample_n(64, &mut b).unwrap();
            assert_eq!(via_graph, via_n, "{}", cond.label());
        }
    }

    #[test]
    fn sample_n_rejects_degree_ranked_schemes() {
        let mut rng = StdRng::seed_from_u64(0);
        for cond in [
            InitialCondition::HighestDegreeBlue { blue: 3 },
            InitialCondition::LowestDegreeBlue { blue: 3 },
        ] {
            assert!(matches!(
                cond.sample_n(10, &mut rng),
                Err(DynamicsError::InvalidParameter { .. })
            ));
        }
    }

    #[test]
    fn sample_topology_matches_sample_on_materialised_graphs() {
        use bo3_graph::CsrTopology;
        // Star: distinct degrees, so the degree-ranked schemes are exercised
        // through both entry points; graph-free schemes consume the RNG
        // identically by delegation.
        let g = generators::star(12).unwrap();
        let topo = CsrTopology::new(&g);
        for cond in [
            InitialCondition::BernoulliWithBias { delta: 0.1 },
            InitialCondition::ExactCount { blue: 4 },
            InitialCondition::HighestDegreeBlue { blue: 3 },
            InitialCondition::LowestDegreeBlue { blue: 5 },
            InitialCondition::PrefixBlue { blue: 2 },
        ] {
            let mut a = StdRng::seed_from_u64(9);
            let mut b = StdRng::seed_from_u64(9);
            let via_graph = cond.sample(&g, &mut a).unwrap();
            let via_topo = cond.sample_topology(&topo, &mut b).unwrap();
            assert_eq!(via_graph, via_topo, "{}", cond.label());
        }
    }

    #[test]
    fn degree_ranked_on_closed_form_topologies_matches_the_materialised_truth() {
        use bo3_graph::topology::materialize;
        use bo3_graph::{CompleteBipartite, CompleteMultipartite};
        let mut rng = StdRng::seed_from_u64(10);
        let bipartite = CompleteBipartite::new(4, 9).unwrap();
        let multi = CompleteMultipartite::new(&[3, 4, 5]).unwrap();
        for blue in [1usize, 4, 7] {
            for highest in [true, false] {
                let cond = if highest {
                    InitialCondition::HighestDegreeBlue { blue }
                } else {
                    InitialCondition::LowestDegreeBlue { blue }
                };
                // Oracle-based placement on the implicit topology must equal
                // the stable-sort placement on its materialisation.
                let via_oracle = cond.sample_topology(&bipartite, &mut rng).unwrap();
                let via_graph = cond
                    .sample(&materialize(&bipartite).unwrap(), &mut rng)
                    .unwrap();
                assert_eq!(via_oracle, via_graph, "bipartite {} ", cond.label());
                let via_oracle = cond.sample_topology(&multi, &mut rng).unwrap();
                let via_graph = cond
                    .sample(&materialize(&multi).unwrap(), &mut rng)
                    .unwrap();
                assert_eq!(via_oracle, via_graph, "multipartite {}", cond.label());
            }
        }
    }

    #[test]
    fn degree_ranked_on_hash_defined_topologies_uses_the_window_ends() {
        // No Θ(n) scan: a window oracle answers with its canonical ends —
        // highest takes the id prefix, lowest the id suffix, so the two
        // adversarial placements stay distinct (and disjoint here).
        let topo = bo3_graph::ImplicitSbm::new(1_000, 2, 0.6, 0.3, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let high = InitialCondition::HighestDegreeBlue { blue: 250 }
            .sample_topology(&topo, &mut rng)
            .unwrap();
        assert_eq!(high.blue_count(), 250);
        assert_eq!(high.blue_vertices(), (0..250).collect::<Vec<_>>());
        let low = InitialCondition::LowestDegreeBlue { blue: 250 }
            .sample_topology(&topo, &mut rng)
            .unwrap();
        assert_eq!(low.blue_vertices(), (750..1_000).collect::<Vec<_>>());
        // Over-long placements still validate against n.
        assert!(InitialCondition::LowestDegreeBlue { blue: 1_001 }
            .sample_topology(&topo, &mut rng)
            .is_err());
    }

    #[test]
    fn labels_are_descriptive() {
        assert!(InitialCondition::BernoulliWithBias { delta: 0.05 }
            .label()
            .contains("0.05"));
        assert!(InitialCondition::ExactCount { blue: 9 }
            .label()
            .contains("9"));
        assert_eq!(InitialCondition::AllRed.label(), "all_red");
        assert!(InitialCondition::ExplicitBlue {
            vertices: vec![1, 2]
        }
        .label()
        .contains("|B|=2"));
    }
}
