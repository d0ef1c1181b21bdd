//! The three recursions that drive the paper's analysis.
//!
//! * Equation (1): the idealised ternary-tree recursion
//!   `b_t = 3b_{t−1}² − 2b_{t−1}³` describing the blue probability when the
//!   voting-DAG is a ternary tree (no collisions);
//! * Equation (2): the Sprinkling recursion
//!   `p_t ≤ (3p² − 2p³) + 6pε + 3ε² + ε³` with `ε_{t−1} = 3^{T−t+1}/d`,
//!   which charges every collision as an adversarially blue vertex;
//! * Equation (4): the lower-bound recursion on the red bias
//!   `δ_t ≥ δ_{t−1} + (δ_{t−1}/2 − 2δ_{t−1}³ − 4ε_{t−1})` used in phase (i)
//!   of Lemma 4 to show the bias multiplies by ≥ 5/4 each step.

use crate::binomial::best_of_three_blue;

/// One step of the ideal (collision-free) recursion, equation (1).
pub fn ideal_step(b: f64) -> f64 {
    best_of_three_blue(b)
}

/// The full trajectory of equation (1) starting from `b0`, for `steps` steps
/// (the returned vector has `steps + 1` entries including `b0`).
pub fn ideal_trajectory(b0: f64, steps: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(steps + 1);
    let mut b = b0;
    out.push(b);
    for _ in 0..steps {
        b = ideal_step(b);
        out.push(b);
    }
    out
}

/// Number of iterations of equation (1) needed to drive the blue probability
/// from `b0 = 1/2 − δ` below `target`. Returns `None` if `b0 ≥ 1/2` (the map
/// does not contract) or the target is not reached within `max_steps`.
pub fn ideal_steps_to_reach(b0: f64, target: f64, max_steps: usize) -> Option<usize> {
    if b0 >= 0.5 || target <= 0.0 {
        return None;
    }
    let mut b = b0;
    for t in 0..=max_steps {
        if b < target {
            return Some(t);
        }
        b = ideal_step(b);
    }
    None
}

/// The collision rate at level `t−1` of a `T`-level voting-DAG on a graph of
/// minimum degree `d`: `ε_{t−1} = 3^{T−t+1}/d` (paper, below equation (2)).
///
/// `t` is the level being computed (`1 ≤ t ≤ T`).
pub fn epsilon(total_levels: usize, t: usize, d: f64) -> f64 {
    debug_assert!(t >= 1 && t <= total_levels);
    3f64.powi((total_levels - t + 1) as i32) / d
}

/// One step of the Sprinkling upper-bound recursion, equation (2):
/// `p_t ≤ (3p² − 2p³) + 6pε + 3ε² + ε³`.
pub fn sprinkling_step(p: f64, eps: f64) -> f64 {
    (best_of_three_blue(p) + 6.0 * p * eps + 3.0 * eps * eps + eps * eps * eps).min(1.0)
}

/// One step of the bias lower bound, equation (4):
/// `δ_t ≥ δ_{t−1} + (δ_{t−1}/2 − 2δ_{t−1}³ − 4ε_{t−1})`.
pub fn delta_step_lower_bound(delta: f64, eps: f64) -> f64 {
    delta + (0.5 * delta - 2.0 * delta * delta * delta - 4.0 * eps)
}

/// A full trajectory of the Sprinkling recursion on a `T`-level DAG over a
/// graph of minimum degree `d`, starting from `p_0 = 1/2 − δ`.
#[derive(Debug, Clone, PartialEq)]
pub struct SprinklingTrajectory {
    /// `p_t` for `t = 0..=levels`.
    pub p: Vec<f64>,
    /// `ε_{t−1}` used at each step (`eps[t]` feeds the step producing `p[t+1]`).
    pub eps: Vec<f64>,
}

/// Runs equation (2) for all `levels` levels of a DAG of total height
/// `levels` on a graph of minimum degree `d`.
pub fn sprinkling_trajectory(delta: f64, levels: usize, d: f64) -> SprinklingTrajectory {
    let mut p = Vec::with_capacity(levels + 1);
    let mut eps_used = Vec::with_capacity(levels);
    let mut current = 0.5 - delta;
    p.push(current);
    for t in 1..=levels {
        let eps = epsilon(levels, t, d);
        current = sprinkling_step(current, eps);
        eps_used.push(eps);
        p.push(current);
    }
    SprinklingTrajectory { p, eps: eps_used }
}

/// The quadratic-decay bound used in phase (ii) of Lemma 4, equation (3):
/// while `p_{t−1} > 12 ε_{t−1}`, `p_t ≤ 4 p_{t−1}²`.
pub fn quadratic_decay_step(p: f64) -> f64 {
    4.0 * p * p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_map_contracts_below_half() {
        let traj = ideal_trajectory(0.45, 20);
        assert_eq!(traj.len(), 21);
        // Monotone decreasing towards 0.
        for w in traj.windows(2) {
            assert!(w[1] <= w[0] + 1e-15);
        }
        assert!(traj[20] < 1e-6);
    }

    #[test]
    fn ideal_map_expands_above_half() {
        let traj = ideal_trajectory(0.55, 20);
        assert!(traj[20] > 1.0 - 1e-6);
    }

    #[test]
    fn ideal_steps_to_reach_is_doubly_logarithmic() {
        // The number of steps to reach 1/n should grow like log log n plus a
        // delta-dependent term: quadratic convergence once b is small.
        let s1 = ideal_steps_to_reach(0.4, 1e-6, 1000).unwrap();
        let s2 = ideal_steps_to_reach(0.4, 1e-12, 1000).unwrap();
        let s3 = ideal_steps_to_reach(0.4, 1e-24, 1000).unwrap();
        // Squaring the precision target adds O(1) steps.
        assert!(s2 - s1 <= 3, "s1={s1}, s2={s2}");
        assert!(s3 - s2 <= 3, "s2={s2}, s3={s3}");
    }

    #[test]
    fn ideal_steps_to_reach_requires_minority_start() {
        assert_eq!(ideal_steps_to_reach(0.5, 0.01, 100), None);
        assert_eq!(ideal_steps_to_reach(0.6, 0.01, 100), None);
        assert_eq!(ideal_steps_to_reach(0.4, 0.0, 100), None);
    }

    #[test]
    fn smaller_delta_needs_more_steps() {
        let fast = ideal_steps_to_reach(0.5 - 0.1, 1e-9, 10_000).unwrap();
        let slow = ideal_steps_to_reach(0.5 - 0.001, 1e-9, 10_000).unwrap();
        assert!(slow > fast);
        // The gap should be roughly log_{?}(delta ratio) * constant — in
        // particular it is additive, not multiplicative.
        assert!(slow - fast < 40);
    }

    #[test]
    fn epsilon_decreases_with_level_and_degree() {
        let t_total = 10;
        // Level closer to the root (larger t) has smaller exponent.
        assert!(epsilon(t_total, 1, 1000.0) > epsilon(t_total, 5, 1000.0));
        assert!(epsilon(t_total, 5, 1000.0) > epsilon(t_total, 10, 1000.0));
        // Larger degree shrinks epsilon.
        assert!(epsilon(t_total, 5, 1e6) < epsilon(t_total, 5, 1e3));
        // Exact value: level t = T gives 3/d.
        assert!((epsilon(t_total, 10, 300.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn sprinkling_step_reduces_to_ideal_when_eps_zero() {
        for &p in &[0.1, 0.3, 0.49] {
            assert!((sprinkling_step(p, 0.0) - ideal_step(p)).abs() < 1e-15);
        }
    }

    #[test]
    fn sprinkling_step_is_monotone_in_eps() {
        let p = 0.3;
        let mut prev = 0.0;
        for &eps in &[0.0, 1e-6, 1e-4, 1e-2, 0.1] {
            let val = sprinkling_step(p, eps);
            assert!(val >= prev);
            prev = val;
        }
    }

    #[test]
    fn sprinkling_step_never_exceeds_one() {
        assert!(sprinkling_step(0.9, 0.9) <= 1.0);
    }

    #[test]
    fn sprinkling_trajectory_converges_on_dense_graphs() {
        // The bound is only non-vacuous when d ≫ 3^T (the paper's polylog(d)/d
        // error term): with d = 1e12 and T = 12 levels, ε stays ≤ 5.4e-7 and
        // the recursion collapses the blue probability.
        let traj = sprinkling_trajectory(0.1, 12, 1e12);
        assert_eq!(traj.p.len(), 13);
        assert_eq!(traj.eps.len(), 12);
        let last = *traj.p.last().unwrap();
        assert!(last < 1e-6, "final blue probability {last}");
    }

    #[test]
    fn sprinkling_trajectory_stalls_on_sparse_graphs() {
        // With a tiny degree the error term dominates and p_t stays large:
        // this is exactly why the theorem needs d = n^{Ω(1/ log log n)}.
        let traj = sprinkling_trajectory(0.05, 12, 20.0);
        let last = *traj.p.last().unwrap();
        assert!(
            last > 0.1,
            "final blue probability {last} unexpectedly small"
        );
    }

    #[test]
    fn delta_lower_bound_grows_at_rate_five_quarters() {
        // Inequality (5): if δ ≥ 12ε and δ < 1/(2√3) then δ_t ≥ (5/4)δ_{t−1}.
        let eps = 1e-6;
        let mut delta = 12.0 * eps + 1e-5;
        for _ in 0..50 {
            if delta >= 1.0 / (2.0 * 3f64.sqrt()) {
                break;
            }
            let next = delta_step_lower_bound(delta, eps);
            assert!(next >= 1.25 * delta - 1e-15, "delta {delta} -> {next}");
            delta = next;
        }
        assert!(delta >= 1.0 / (2.0 * 3f64.sqrt()));
    }

    #[test]
    fn quadratic_decay_squares_small_probabilities() {
        let p = 1e-3;
        assert!((quadratic_decay_step(p) - 4e-6).abs() < 1e-18);
        // Six steps of quadratic decay from 0.2 crush the probability.
        let mut q = 0.2;
        for _ in 0..6 {
            q = quadratic_decay_step(q);
        }
        assert!(q < 1e-6, "q = {q}");
    }

    #[test]
    fn sprinkling_upper_bounds_ideal() {
        // Equation (2) is an upper bound on the true process, so with any
        // positive epsilon it must dominate the ideal recursion pointwise.
        let ideal = ideal_trajectory(0.45, 10);
        let sprink = sprinkling_trajectory(0.05, 10, 1e5);
        for (i, s) in sprink.p.iter().enumerate() {
            assert!(*s + 1e-15 >= ideal[i], "level {i}: {s} < {}", ideal[i]);
        }
    }
}
