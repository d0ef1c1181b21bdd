//! E11 — the three-phase structure of Lemma 4 in measured trajectories.
//!
//! For several `(n, δ)` points, run one traced trajectory, segment it into
//! the bias-amplification and decay phases, and print the observed lengths
//! and growth rate next to the proof's planned `T₃`, `T₂` and the ≥ 5/4
//! growth-rate guarantee.

use bo3_core::prelude::*;
use bo3_core::report::{fmt_f64, fmt_opt_f64, Table};
use bo3_theory::phases::phase_plan;
use rand::SeedableRng;

use crate::Scale;

/// The `(n, delta)` points analysed.
pub fn points(scale: Scale) -> Vec<(usize, f64)> {
    match scale {
        Scale::Quick => vec![(4_000, 0.05), (4_000, 0.2)],
        Scale::Paper => vec![
            (20_000, 0.02),
            (20_000, 0.05),
            (20_000, 0.2),
            (40_000, 0.05),
        ],
    }
}

/// Observed and planned phases for one point.
pub fn measure(
    n: usize,
    delta: f64,
    seed: u64,
) -> (ObservedPhases, Option<bo3_theory::phases::PhasePlan>) {
    let graph = GraphSpec::Complete { n }
        .generate(&mut rand::rngs::StdRng::seed_from_u64(seed))
        .expect("graph");
    let sim = Engine::on_graph(&graph).expect("engine").with_trace(true);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let init = InitialCondition::BernoulliWithBias { delta }
        .sample(&graph, &mut rng)
        .expect("init");
    let run = sim
        .run(&ProtocolSpec::BestOfThree, init, &mut rng)
        .expect("run");
    let observed = segment_trace(run.trace.as_ref().expect("trace"), n);
    let planned = phase_plan((n - 1) as f64, delta, 2.0);
    (observed, planned)
}

/// Runs the analysis; one row per point.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "E11: observed vs planned phase structure (Lemma 4)",
        &[
            "n",
            "delta",
            "observed_amplification_rounds",
            "planned_T3",
            "observed_bias_growth_rate",
            "guaranteed_rate (5/4)",
            "observed_decay_rounds",
            "planned_T2+1",
            "observed_total",
        ],
    );
    for (i, (n, delta)) in points(scale).into_iter().enumerate() {
        let (obs, plan) = measure(n, delta, 0xE11 + i as u64);
        let (t3, t2) = plan
            .as_ref()
            .map(|p| {
                (
                    p.t3_bias_amplification as f64,
                    (p.t2_quadratic_decay + 1) as f64,
                )
            })
            .unwrap_or((f64::NAN, f64::NAN));
        table.push_row(vec![
            n.to_string(),
            fmt_f64(delta),
            obs.bias_amplification_rounds.to_string(),
            fmt_f64(t3),
            fmt_opt_f64(obs.measured_bias_growth_rate),
            "1.25".into(),
            obs.decay_rounds
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into()),
            fmt_f64(t2),
            obs.total_rounds.to_string(),
        ]);
    }
    table
}

/// Check: the measured bias growth beats the proven 5/4 rate and the
/// observed phases are no longer than the proof's plan.
pub fn verify(scale: Scale) -> bool {
    for (i, (n, delta)) in points(scale).into_iter().enumerate() {
        let (obs, plan) = measure(n, delta, 0xE11 + i as u64);
        let Some(plan) = plan else { return false };
        match obs.measured_bias_growth_rate {
            Some(rate) if rate >= 1.25 => {}
            // A very large delta can start beyond the hand-over point, in
            // which case there is no amplification phase to measure.
            None if delta >= 0.28 => {}
            _ => return false,
        }
        if obs.bias_amplification_rounds > plan.t3_bias_amplification + 2 {
            return false;
        }
        if let Some(decay) = obs.decay_rounds {
            if decay > plan.t2_quadratic_decay + plan.t1_final_step + 4 {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_one_row_per_point() {
        let table = run(Scale::Quick);
        assert_eq!(table.num_rows(), points(Scale::Quick).len());
    }

    #[test]
    fn observed_phases_match_lemma_four() {
        assert!(verify(Scale::Quick));
    }
}
