//! The three-phase decomposition of Lemma 4.
//!
//! Lemma 4 shows that the voting-DAG of height
//! `T = ⌊a log log d⌋ + 1 + T₂ + T₃` drives the blue probability from
//! `1/2 − δ` down to `o(1/d)` by splitting the levels into three phases:
//!
//! * **Phase i** (length `T₃ = O(log δ⁻¹)`): the red bias grows
//!   geometrically, `δ_t ≥ (5/4) δ_{t−1}`, until `δ_t ≥ 1/(2√3)`;
//! * **Phase ii** (length `T₂ = O(log log d)`): the blue probability decays
//!   quadratically, `p_t ≤ 4 p_{t−1}²`, until `p_t ≤ 12 ε_t = polylog(d)/d`;
//! * **Phase iii** (a single step): one more application of equation (2)
//!   squares `polylog(d)/d` into `o(1/d)`.
//!
//! These lengths, with the paper's explicit constants, are exactly what
//! [`PhasePlan`] computes; the experiment E11 compares them against the
//! phases observed in simulation.

use crate::recursion::{delta_step_lower_bound, quadratic_decay_step};

/// The bias threshold `1/(2√3)` at which phase i hands over to phase ii.
pub fn phase_one_bias_target() -> f64 {
    1.0 / (2.0 * 3f64.sqrt())
}

/// Planned phase lengths for a graph of minimum degree `d` and initial bias `δ`.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// Minimum degree `d` of the target graph.
    pub d: f64,
    /// Initial red bias `δ` (initial blue probability is `1/2 − δ`).
    pub delta: f64,
    /// Length of phase i: bias amplification at rate ≥ 5/4 (`O(log δ⁻¹)`).
    pub t3_bias_amplification: usize,
    /// Length of phase ii: quadratic decay of the blue probability (`O(log log d)`).
    pub t2_quadratic_decay: usize,
    /// Length of phase iii: the final squaring step (always 1 in the paper).
    pub t1_final_step: usize,
    /// The extra `⌊a log log d⌋` levels consumed by the upper-level analysis
    /// (Section 4), with the paper's `h = a log log d`.
    pub upper_levels: usize,
}

impl PhasePlan {
    /// Total voting-DAG height `T` required by the plan.
    pub fn total_levels(&self) -> usize {
        self.t3_bias_amplification
            + self.t2_quadratic_decay
            + self.t1_final_step
            + self.upper_levels
    }

    /// The level `T'` splitting the lower-level analysis (Section 3) from the
    /// upper-level analysis (Section 4): everything except the upper levels.
    pub fn lower_levels(&self) -> usize {
        self.t3_bias_amplification + self.t2_quadratic_decay + self.t1_final_step
    }
}

/// Computes the phase lengths exactly as in the proof of Lemma 4.
///
/// `a` is the constant in the upper-level height `h = ⌊a log log d⌋`
/// (Lemma 7 needs `a` large enough relative to `α`; `a = 2` suffices for all
/// the experiments here).  Returns `None` for degenerate inputs
/// (`d ≤ e`, `δ ≤ 0`, or `δ ≥ 1/2`).
pub fn phase_plan(d: f64, delta: f64, a: f64) -> Option<PhasePlan> {
    // NaN inputs fail the positive comparisons and are rejected too.
    let inputs_valid = d > std::f64::consts::E && delta > 0.0 && delta < 0.5 && a > 0.0;
    if !inputs_valid {
        return None;
    }
    let target = phase_one_bias_target();

    // Phase i: iterate equation (4) with a conservative epsilon of 0 (the
    // paper shows ε ≪ δ throughout this phase) and count the steps to reach
    // the bias target. The paper caps this phase at C log δ⁻¹.
    let cap_t3 = (10.0 / (1.25f64).ln() * (1.0 / delta).ln()).ceil() as usize + 1;
    let mut t3 = 0usize;
    let mut bias = delta;
    while bias < target && t3 < cap_t3 {
        bias = delta_step_lower_bound(bias, 0.0);
        t3 += 1;
    }

    // Phase ii: starting from p = 1/2 − 1/(2√3), iterate p ← 4p² until
    // p ≤ polylog(d)/d, capped at 2 log₂ log d as in the paper.
    let loglog_d = d.ln().ln();
    let cap_t2 = (2.0 * loglog_d / 2f64.ln()).ceil() as usize + 1;
    let stop = (loglog_d.powi(3) / d).min(1.0); // a stand-in for 12·ε_{T₂} = polylog(d)/d
    let mut t2 = 0usize;
    let mut p = 0.5 - target;
    while p > stop && t2 < cap_t2 {
        p = quadratic_decay_step(p);
        t2 += 1;
    }

    let upper = (a * loglog_d).floor().max(1.0) as usize;

    Some(PhasePlan {
        d,
        delta,
        t3_bias_amplification: t3,
        t2_quadratic_decay: t2,
        t1_final_step: 1,
        upper_levels: upper,
    })
}

/// The paper's headline prediction: consensus within
/// `O(log log n) + O(log δ⁻¹)` rounds.  This helper evaluates the concrete
/// (constant-bearing) version used to size the experiments:
/// `T(n, α, δ) = total_levels` of the [`phase_plan`] with `d = n^α`.
pub fn predicted_consensus_rounds(n: f64, alpha: f64, delta: f64, a: f64) -> Option<usize> {
    let inputs_valid = n > 1.0 && alpha > 0.0;
    if !inputs_valid {
        return None;
    }
    let d = n.powf(alpha);
    phase_plan(d, delta, a).map(|p| p.total_levels())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bias_target_value() {
        assert!((phase_one_bias_target() - 0.288_675_134_594_812_9).abs() < 1e-12);
    }

    #[test]
    fn phase_plan_rejects_degenerate_inputs() {
        assert!(phase_plan(2.0, 0.1, 2.0).is_none()); // d too small
        assert!(phase_plan(1e4, 0.0, 2.0).is_none()); // zero bias
        assert!(phase_plan(1e4, 0.6, 2.0).is_none()); // bias above 1/2
        assert!(phase_plan(1e4, 0.1, 0.0).is_none()); // non-positive a
    }

    #[test]
    fn phase_lengths_scale_as_the_paper_says() {
        // T3 grows logarithmically in 1/δ.
        let p1 = phase_plan(1e6, 0.1, 2.0).unwrap();
        let p2 = phase_plan(1e6, 0.01, 2.0).unwrap();
        let p3 = phase_plan(1e6, 0.001, 2.0).unwrap();
        assert!(p2.t3_bias_amplification > p1.t3_bias_amplification);
        assert!(p3.t3_bias_amplification > p2.t3_bias_amplification);
        let growth_12 = p2.t3_bias_amplification - p1.t3_bias_amplification;
        let growth_23 = p3.t3_bias_amplification - p2.t3_bias_amplification;
        // Each factor-10 reduction in δ costs about the same number of extra
        // steps (logarithmic dependence).
        assert!((growth_12 as i64 - growth_23 as i64).abs() <= 2);

        // T2 grows (very slowly) with d and is O(log log d).
        let q1 = phase_plan(1e4, 0.1, 2.0).unwrap();
        let q2 = phase_plan(1e12, 0.1, 2.0).unwrap();
        assert!(q2.t2_quadratic_decay >= q1.t2_quadratic_decay);
        assert!(q2.t2_quadratic_decay <= q1.t2_quadratic_decay + 4);
        assert!(q2.t2_quadratic_decay <= 12);
    }

    #[test]
    fn phase_plan_totals_are_consistent() {
        let p = phase_plan(1e8, 0.05, 2.0).unwrap();
        assert_eq!(
            p.total_levels(),
            p.t3_bias_amplification + p.t2_quadratic_decay + 1 + p.upper_levels
        );
        assert_eq!(p.lower_levels() + p.upper_levels, p.total_levels());
        assert_eq!(p.t1_final_step, 1);
        assert!(p.upper_levels >= 1);
    }

    #[test]
    fn predicted_rounds_grow_slowly_with_n() {
        // Doubling log n barely changes the prediction (log log growth).
        let r1 = predicted_consensus_rounds(1e4, 0.8, 0.05, 2.0).unwrap();
        let r2 = predicted_consensus_rounds(1e8, 0.8, 0.05, 2.0).unwrap();
        let r3 = predicted_consensus_rounds(1e16, 0.8, 0.05, 2.0).unwrap();
        assert!(r2 >= r1);
        assert!(r3 >= r2);
        assert!(r3 - r1 <= 6, "r1={r1}, r3={r3}");
    }

    #[test]
    fn predicted_rounds_reject_bad_inputs() {
        assert!(predicted_consensus_rounds(0.5, 0.8, 0.05, 2.0).is_none());
        assert!(predicted_consensus_rounds(1e6, 0.0, 0.05, 2.0).is_none());
    }

    #[test]
    fn phase_one_reaches_target_bias() {
        // Simulate the lower-bound recursion for the planned number of steps
        // and check the bias target is actually reached.
        let plan = phase_plan(1e9, 0.01, 2.0).unwrap();
        let mut bias = 0.01;
        for _ in 0..plan.t3_bias_amplification {
            bias = delta_step_lower_bound(bias, 0.0);
        }
        assert!(bias >= phase_one_bias_target());
    }
}
