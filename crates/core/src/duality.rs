//! Empirical verification of the time-reversal duality (Section 2).
//!
//! The paper's entire proof rests on the identity
//! `P(ξ_T(v₀) = B) = P(X_H(v₀, T) = B)`: the forward Best-of-Three process
//! observed at one vertex has exactly the law of the voting-DAG colouring.
//! [`DualityCheck`] estimates both sides by Monte Carlo on the same graph and
//! reports the difference together with the scale of Monte-Carlo noise, which
//! is experiment E9.

use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_dag::colouring::colour_dag_random;
use bo3_dag::voting_dag::VotingDag;
use bo3_dynamics::prelude::*;
use bo3_graph::CsrGraph;

use crate::error::{CoreError, Result};

/// Configuration of a duality check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualityCheck {
    /// The observed vertex `v₀`.
    pub vertex: usize,
    /// Number of rounds `T` (equivalently, DAG height).
    pub rounds: usize,
    /// Blue probability of the i.i.d. initial condition.
    pub p_blue: f64,
    /// Monte-Carlo trials per side.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
}

/// The two estimates and their difference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualityReport {
    /// Estimate of `P(ξ_T(v₀) = B)` from forward simulation.
    pub forward_estimate: f64,
    /// Estimate of `P(X_H(v₀, T) = B)` from DAG colouring.
    pub dag_estimate: f64,
    /// Absolute difference between the two estimates.
    pub difference: f64,
    /// Two standard deviations of the Monte-Carlo noise on the difference
    /// (the difference should be below this almost always if the duality holds).
    pub noise_scale: f64,
    /// Trials used per side.
    pub trials: usize,
}

impl DualityCheck {
    /// Runs both estimators on `graph`.
    pub fn run(&self, graph: &CsrGraph) -> Result<DualityReport> {
        if self.vertex >= graph.num_vertices() {
            return Err(CoreError::InvalidConfig {
                reason: format!(
                    "observed vertex {} out of range for a graph with {} vertices",
                    self.vertex,
                    graph.num_vertices()
                ),
            });
        }
        if !(0.0..=1.0).contains(&self.p_blue) || self.p_blue.is_nan() {
            return Err(CoreError::InvalidConfig {
                reason: format!("p_blue must lie in [0,1], got {}", self.p_blue),
            });
        }
        if self.trials == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "duality check needs at least one trial".into(),
            });
        }

        // Forward side: run the real dynamics for exactly `rounds` rounds and
        // look at the observed vertex.
        let simulator = Engine::on_graph(graph)?
            .with_stopping(StoppingCondition::fixed_rounds(self.rounds))
            .with_trace(false);
        let protocol = BestOfThree::new();
        let mut forward_blue = 0usize;
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.trials {
            let initial = InitialCondition::Bernoulli {
                blue_probability: self.p_blue,
            }
            .sample(graph, &mut rng)?;
            // Run the fixed number of rounds, then inspect the vertex. We use
            // the trace-less runner and re-derive the final configuration from
            // a manual stepping loop to read a single vertex cheaply.
            let mut config = initial;
            let mut scratch = Vec::new();
            for _ in 0..self.rounds {
                simulator.step_synchronous(&protocol, &config, &mut scratch, &mut rng);
                config.overwrite_from(&scratch);
            }
            if config.get(self.vertex).is_blue() {
                forward_blue += 1;
            }
        }
        let forward_estimate = forward_blue as f64 / self.trials as f64;

        // Dual side: sample a voting-DAG of the same height and colour it.
        let mut dag_blue = 0usize;
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x517C_C1B7_2722_0A95);
        for _ in 0..self.trials {
            let dag = VotingDag::sample(graph, self.vertex, self.rounds, &mut rng)?;
            let colouring = colour_dag_random(&dag, self.p_blue, &mut rng)?;
            if colouring.root_colour().is_blue() {
                dag_blue += 1;
            }
        }
        let dag_estimate = dag_blue as f64 / self.trials as f64;

        // Binomial noise: each estimate has variance p(1-p)/trials; the
        // difference has twice that. Use the pooled estimate for p.
        let p_pool = 0.5 * (forward_estimate + dag_estimate);
        let var = 2.0 * p_pool * (1.0 - p_pool) / self.trials as f64;
        let noise_scale = 2.0 * var.sqrt();

        Ok(DualityReport {
            forward_estimate,
            dag_estimate,
            difference: (forward_estimate - dag_estimate).abs(),
            noise_scale,
            trials: self.trials,
        })
    }
}

impl DualityReport {
    /// `true` when the difference is within three standard deviations of the
    /// Monte-Carlo noise (a generous acceptance band: the duality is exact,
    /// so only sampling noise separates the two estimates).
    pub fn consistent(&self) -> bool {
        self.difference <= 1.5 * self.noise_scale + 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_graph::generators;

    #[test]
    fn rejects_bad_configuration() {
        let g = generators::complete(10);
        let bad_vertex = DualityCheck {
            vertex: 99,
            rounds: 2,
            p_blue: 0.3,
            trials: 10,
            seed: 0,
        };
        assert!(bad_vertex.run(&g).is_err());
        let bad_p = DualityCheck {
            vertex: 0,
            rounds: 2,
            p_blue: 1.5,
            trials: 10,
            seed: 0,
        };
        assert!(bad_p.run(&g).is_err());
        let bad_trials = DualityCheck {
            vertex: 0,
            rounds: 2,
            p_blue: 0.3,
            trials: 0,
            seed: 0,
        };
        assert!(bad_trials.run(&g).is_err());
    }

    #[test]
    fn duality_holds_on_a_small_complete_graph() {
        let g = generators::complete(30);
        let check = DualityCheck {
            vertex: 3,
            rounds: 3,
            p_blue: 0.4,
            trials: 3000,
            seed: 42,
        };
        let report = check.run(&g).unwrap();
        assert!(
            report.consistent(),
            "difference {} exceeds noise scale {}",
            report.difference,
            report.noise_scale
        );
    }

    #[test]
    fn duality_holds_on_a_sparse_cycle() {
        // Heavy coalescence regime: the DAG is nowhere near a ternary tree,
        // yet the duality is still exact.
        let g = generators::cycle(12).unwrap();
        let check = DualityCheck {
            vertex: 0,
            rounds: 4,
            p_blue: 0.45,
            trials: 3000,
            seed: 7,
        };
        let report = check.run(&g).unwrap();
        assert!(
            report.consistent(),
            "difference {} exceeds noise scale {}",
            report.difference,
            report.noise_scale
        );
    }

    #[test]
    fn zero_rounds_reduces_to_the_initial_condition() {
        let g = generators::complete(20);
        let check = DualityCheck {
            vertex: 1,
            rounds: 0,
            p_blue: 0.25,
            trials: 4000,
            seed: 3,
        };
        let report = check.run(&g).unwrap();
        assert!((report.forward_estimate - 0.25).abs() < 0.03);
        assert!((report.dag_estimate - 0.25).abs() < 0.03);
        assert!(report.consistent());
    }

    #[test]
    fn extreme_probabilities_are_exact() {
        let g = generators::complete(15);
        for p in [0.0, 1.0] {
            let check = DualityCheck {
                vertex: 0,
                rounds: 3,
                p_blue: p,
                trials: 200,
                seed: 9,
            };
            let report = check.run(&g).unwrap();
            assert_eq!(report.forward_estimate, p);
            assert_eq!(report.dag_estimate, p);
            assert_eq!(report.difference, 0.0);
            assert!(report.consistent());
        }
    }
}
