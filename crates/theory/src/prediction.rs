//! End-to-end theoretical predictions packaged for comparison against
//! simulation results.
//!
//! Every experiment in `EXPERIMENTS.md` reports a *paper* column produced by
//! these functions next to the *measured* column produced by the simulator,
//! so the comparison logic lives in one place.

use crate::bounds::root_blue_probability_bound;
use crate::phases::{phase_plan, PhasePlan};
use crate::recursion::{ideal_steps_to_reach, sprinkling_trajectory};

/// A complete prediction for one parameter point `(n, α, δ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Number of vertices.
    pub n: f64,
    /// Degree exponent (`d = n^α`).
    pub alpha: f64,
    /// Minimum degree `d = n^α`.
    pub d: f64,
    /// Initial red bias `δ`.
    pub delta: f64,
    /// Whether the parameter point satisfies Theorem 1's hypotheses
    /// (`α = Ω(1/ log log n)` with constant 1, and `δ ≥ (log d)^{−C}` with `C = 3`).
    pub in_theorem_regime: bool,
    /// The phase decomposition of Lemma 4, when defined.
    pub phases: Option<PhasePlan>,
    /// Consensus-round prediction `T = O(log log n) + O(log δ⁻¹)` with the
    /// proof's constants (total voting-DAG height).
    pub predicted_rounds: Option<usize>,
    /// The idealised (complete-graph, equation (1)) number of rounds to push
    /// the blue probability below `1/n` — a lower-bound-flavoured reference.
    pub ideal_rounds: Option<usize>,
    /// Upper bound on the probability that a fixed vertex ends blue, from the
    /// Sprinkling trajectory composed with the Lemma 7 bound.
    pub single_vertex_blue_bound: f64,
}

/// Computes the full prediction for `(n, alpha, delta)` using upper-level
/// constant `a` (see [`phase_plan`]).
pub fn predict(n: f64, alpha: f64, delta: f64, a: f64) -> Prediction {
    let d = n.powf(alpha);
    let loglog_n = if n > std::f64::consts::E {
        n.ln().ln()
    } else {
        0.0
    };
    let regime_alpha = loglog_n > 0.0 && alpha >= 1.0 / loglog_n;
    let regime_delta = d > 1.0 && delta > 0.0 && delta >= d.ln().powf(-3.0);
    let in_theorem_regime = regime_alpha && regime_delta && delta < 0.5;

    let phases = phase_plan(d, delta, a);
    let predicted_rounds = phases.as_ref().map(|p| p.total_levels());
    let ideal_rounds = if n > 1.0 {
        ideal_steps_to_reach(0.5 - delta, 1.0 / n, 10_000)
    } else {
        None
    };

    let single_vertex_blue_bound = match &phases {
        None => 1.0,
        Some(plan) => {
            let lower = sprinkling_trajectory(delta, plan.lower_levels(), d);
            let leaf_prob = *lower.p.last().unwrap_or(&1.0);
            root_blue_probability_bound(plan.upper_levels as u32, d, leaf_prob)
        }
    };

    Prediction {
        n,
        alpha,
        d,
        delta,
        in_theorem_regime,
        phases,
        predicted_rounds,
        ideal_rounds,
        single_vertex_blue_bound,
    }
}

/// Convenience wrapper: the probability (upper bound) that *any* vertex is
/// still blue after the predicted number of rounds, by a union bound over the
/// `n` vertices.
pub fn all_red_failure_bound(pred: &Prediction) -> f64 {
    (pred.n * pred.single_vertex_blue_bound).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_regime_is_recognised() {
        let p = predict(1e6, 0.8, 0.05, 2.0);
        assert!(p.in_theorem_regime);
        assert!(p.predicted_rounds.is_some());
        assert!(p.ideal_rounds.is_some());
        assert!((p.d - 1e6f64.powf(0.8)).abs() < 1e-6);
    }

    #[test]
    fn sparse_regime_is_rejected() {
        // alpha far below 1/log log n.
        let p = predict(1e6, 0.01, 0.05, 2.0);
        assert!(!p.in_theorem_regime);
    }

    #[test]
    fn tiny_delta_is_rejected() {
        // delta below (log d)^{-3}.
        let p = predict(1e6, 0.8, 1e-9, 2.0);
        assert!(!p.in_theorem_regime);
        // but the prediction machinery still runs
        assert!(p.predicted_rounds.is_some());
    }

    #[test]
    fn majority_start_is_rejected() {
        let p = predict(1e6, 0.8, 0.6, 2.0);
        assert!(!p.in_theorem_regime);
        assert!(p.phases.is_none());
    }

    #[test]
    fn predicted_rounds_dominate_ideal_rounds() {
        // The proof's constant-bearing bound is necessarily more conservative
        // than the idealised recursion.
        let p = predict(1e5, 0.9, 0.1, 2.0);
        assert!(p.predicted_rounds.unwrap() >= p.ideal_rounds.unwrap());
    }

    #[test]
    fn blue_bound_is_small_in_regime_and_union_bound_works() {
        // The proof's explicit constants become non-vacuous only for very
        // dense instances; n = 1e12 with alpha = 0.95 is such a point.
        let p = predict(1e12, 0.95, 0.1, 2.0);
        assert!(p.in_theorem_regime);
        assert!(
            p.single_vertex_blue_bound < 1e-7,
            "bound {}",
            p.single_vertex_blue_bound
        );
        assert!(all_red_failure_bound(&p) < 1e-1);
    }

    #[test]
    fn blue_bound_degrades_outside_regime() {
        let sparse = predict(1e6, 0.05, 0.1, 2.0);
        assert!(sparse.single_vertex_blue_bound > 0.01);
    }

    #[test]
    fn rounds_grow_with_shrinking_delta_but_slowly_with_n() {
        let a = predict(1e6, 0.8, 0.1, 2.0).predicted_rounds.unwrap();
        let b = predict(1e6, 0.8, 0.001, 2.0).predicted_rounds.unwrap();
        assert!(b > a);
        let c = predict(1e12, 0.8, 0.1, 2.0).predicted_rounds.unwrap();
        assert!(c >= a);
        assert!(c - a <= 6);
    }
}
