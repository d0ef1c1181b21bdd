//! Segmentation of a measured trajectory into the phases of Lemma 4.
//!
//! Lemma 4 predicts that the bias trajectory `δ_t = 1/2 − b_t` of the
//! Best-of-Three process has three regimes: geometric amplification of the
//! bias (rate ≥ 5/4) while `δ_t < 1/(2√3)`, quadratic decay of the blue
//! fraction (`b_t ≲ 4 b_{t−1}²`) once the bias is constant, and a final
//! plunge to extinction.  [`segment_trace`] finds those regimes in a measured
//! [`Trace`] so experiment E11 can print observed-vs-predicted phase lengths.

use bo3_dynamics::trace::Trace;
use bo3_theory::phases::{phase_one_bias_target, PhasePlan};

/// Observed phase lengths of one trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedPhases {
    /// Rounds spent with bias below the `1/(2√3)` hand-over point
    /// (phase i of Lemma 4).
    pub bias_amplification_rounds: usize,
    /// Rounds from the hand-over point until the blue fraction first drops
    /// below `1/n` (phase ii + iii; on a finite graph this is "blue extinct
    /// or nearly so").
    pub decay_rounds: Option<usize>,
    /// Total rounds recorded in the trace (excluding round 0).
    pub total_rounds: usize,
    /// Geometric growth rate of the bias measured over the amplification
    /// phase (the paper proves ≥ 5/4 per round in expectation).
    pub measured_bias_growth_rate: Option<f64>,
}

/// Segments a measured trace into the Lemma 4 phases.
///
/// `n` is the number of vertices of the underlying graph, used for the
/// extinction threshold `1/n`.
pub fn segment_trace(trace: &Trace, n: usize) -> ObservedPhases {
    let biases = trace.red_biases();
    let fractions = trace.blue_fractions();
    let total_rounds = trace.len().saturating_sub(1);
    let target = phase_one_bias_target();

    // Phase i: rounds until the bias first reaches the hand-over point.
    let handover = biases.iter().position(|&d| d >= target);
    let bias_amplification_rounds = handover.unwrap_or(total_rounds);

    // Growth rate over phase i: geometric mean of per-round ratios of the
    // bias, over the rounds where both endpoints are positive.
    let mut ratios: Vec<f64> = Vec::new();
    let limit = handover.unwrap_or(biases.len().saturating_sub(1));
    for t in 0..limit.min(biases.len().saturating_sub(1)) {
        if biases[t] > 0.0 && biases[t + 1] > 0.0 {
            ratios.push(biases[t + 1] / biases[t]);
        }
    }
    let measured_bias_growth_rate = if ratios.is_empty() {
        None
    } else {
        let log_mean = ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64;
        Some(log_mean.exp())
    };

    // Phase ii+iii: rounds from hand-over until the blue fraction drops below 1/n.
    let threshold = 1.0 / n.max(1) as f64;
    let decay_rounds =
        handover.and_then(|start| fractions[start..].iter().position(|&b| b < threshold));

    ObservedPhases {
        bias_amplification_rounds,
        decay_rounds,
        total_rounds,
        measured_bias_growth_rate,
    }
}

/// Side-by-side comparison of an observed trajectory and the paper's plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseComparison {
    /// Phases observed in the measured trace.
    pub observed: ObservedPhases,
    /// The paper's planned phase lengths for the same `(d, δ)`.
    pub planned: PhasePlan,
}

impl PhaseComparison {
    /// Builds the comparison.
    pub fn new(observed: ObservedPhases, planned: PhasePlan) -> Self {
        PhaseComparison { observed, planned }
    }

    /// Ratio of observed to planned total length (values well below 1 are the
    /// norm: the plan carries the proof's conservative constants).
    pub fn total_ratio(&self) -> f64 {
        self.observed.total_rounds as f64 / self.planned.total_levels().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bo3_dynamics::prelude::*;
    use bo3_graph::generators;
    use bo3_theory::phases::phase_plan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_trace(n: usize, delta: f64, seed: u64) -> Trace {
        let g = generators::complete(n);
        let sim = Engine::on_graph(&g).unwrap().with_trace(true);
        let mut rng = StdRng::seed_from_u64(seed);
        let init = InitialCondition::BernoulliWithBias { delta }
            .sample(&g, &mut rng)
            .unwrap();
        sim.run(&ProtocolSpec::BestOfThree, init, &mut rng)
            .unwrap()
            .trace
            .unwrap()
    }

    #[test]
    fn phases_of_a_real_run_look_like_lemma_four() {
        let n = 4000;
        let delta = 0.05;
        let trace = run_trace(n, delta, 1);
        let observed = segment_trace(&trace, n);
        // The bias amplification phase exists and ends before the run does.
        assert!(observed.bias_amplification_rounds >= 1);
        assert!(observed.bias_amplification_rounds < observed.total_rounds);
        // The measured growth rate should be at least the paper's 5/4 on a
        // complete graph (it is ≈ 3/2 − o(1) there).
        let rate = observed.measured_bias_growth_rate.unwrap();
        assert!(rate >= 1.2, "measured bias growth rate {rate}");
        // After hand-over the blue fraction collapses within a few rounds.
        let decay = observed.decay_rounds.expect("blue should go extinct");
        assert!(decay <= 10, "decay took {decay} rounds");
    }

    #[test]
    fn larger_delta_shortens_the_amplification_phase() {
        let n = 3000;
        let small = segment_trace(&run_trace(n, 0.02, 2), n);
        let large = segment_trace(&run_trace(n, 0.2, 2), n);
        assert!(large.bias_amplification_rounds <= small.bias_amplification_rounds);
    }

    #[test]
    fn comparison_against_the_plan_is_conservative() {
        let n = 4000usize;
        let delta = 0.05;
        let trace = run_trace(n, delta, 3);
        let observed = segment_trace(&trace, n);
        let planned = phase_plan((n - 1) as f64, delta, 2.0).unwrap();
        let cmp = PhaseComparison::new(observed, planned);
        // The proof's constants are loose, so the observed run is shorter
        // than (or at most comparable to) the plan.
        assert!(cmp.total_ratio() <= 1.5, "ratio {}", cmp.total_ratio());
    }

    #[test]
    fn degenerate_traces_do_not_panic() {
        let empty = Trace::new();
        let obs = segment_trace(&empty, 100);
        assert_eq!(obs.total_rounds, 0);
        assert_eq!(obs.bias_amplification_rounds, 0);
        assert!(obs.measured_bias_growth_rate.is_none());
        assert!(obs.decay_rounds.is_none());
    }

    #[test]
    fn blue_majority_run_never_reaches_the_handover_point() {
        // Start from a blue majority: the bias is negative throughout and the
        // amplification phase never completes.
        let g = generators::complete(500);
        let sim = Engine::on_graph(&g).unwrap().with_trace(true);
        let mut rng = StdRng::seed_from_u64(4);
        let init = InitialCondition::Bernoulli {
            blue_probability: 0.7,
        }
        .sample(&g, &mut rng)
        .unwrap();
        let trace = sim
            .run(&ProtocolSpec::BestOfThree, init, &mut rng)
            .unwrap()
            .trace
            .unwrap();
        let obs = segment_trace(&trace, 500);
        assert_eq!(obs.bias_amplification_rounds, obs.total_rounds);
        assert!(obs.decay_rounds.is_none());
    }
}
