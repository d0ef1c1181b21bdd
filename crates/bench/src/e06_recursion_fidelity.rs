//! E6 — equation (1) against the measured blue-fraction trajectory.
//!
//! On the complete graph the voting-DAG is (essentially) a ternary tree, so
//! the blue fraction should follow the recursion `b_{t+1} = 3b_t² − 2b_t³`
//! round by round until finite-size fluctuations take over.  The table prints
//! the two trajectories side by side; the verification computes the maximum
//! absolute gap over the rounds where the blue fraction is still macroscopic.

use bo3_core::prelude::*;
use bo3_core::report::Table;
use bo3_theory::recursion::ideal_trajectory;
use rand::SeedableRng;

use crate::Scale;

fn graph_size(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 6_000,
        Scale::Paper => 20_000,
    }
}

/// The δ values whose trajectories are tabulated.
pub fn deltas(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Quick => vec![0.1],
        Scale::Paper => vec![0.3, 0.1, 0.02],
    }
}

fn measured_trajectory(n: usize, delta: f64, seed: u64) -> Vec<f64> {
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
    run.trace.expect("trace").blue_fractions()
}

/// Builds the side-by-side trajectory table for the first δ in the sweep.
pub fn run(scale: Scale) -> Table {
    let n = graph_size(scale);
    let delta = deltas(scale)[0];
    let measured = measured_trajectory(n, delta, 0xE6);
    let ideal = ideal_trajectory(0.5 - delta, measured.len().saturating_sub(1));
    trajectory_table(
        &format!("E6: measured vs eq.(1) trajectory (complete graph, n = {n}, delta = {delta})"),
        &measured,
        &ideal,
        "eq(1)",
    )
}

/// Maximum pointwise gap between the measured and predicted blue fractions,
/// over rounds where the predicted fraction is at least `floor`.
pub fn max_gap(n: usize, delta: f64, floor: f64, seed: u64) -> f64 {
    let measured = measured_trajectory(n, delta, seed);
    let ideal = ideal_trajectory(0.5 - delta, measured.len().saturating_sub(1));
    measured
        .iter()
        .zip(ideal.iter())
        .filter(|(_, &p)| p >= floor)
        .map(|(&m, &p)| (m - p).abs())
        .fold(0.0, f64::max)
}

/// Check: the trajectories agree to within a few times `1/√n` while the blue
/// fraction is macroscopic.
pub fn verify(scale: Scale) -> bool {
    let n = graph_size(scale);
    deltas(scale).into_iter().all(|delta| {
        let gap = max_gap(n, delta, 0.01, 0xE6);
        gap < 6.0 / (n as f64).sqrt() + 0.01
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_contains_both_columns() {
        let table = run(Scale::Quick);
        assert!(table.num_rows() >= 3);
        assert!(table.to_csv().contains("eq(1)"));
    }

    #[test]
    fn measured_trajectory_follows_equation_one() {
        assert!(verify(Scale::Quick));
    }
}
