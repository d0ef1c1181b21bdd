//! Scenario: the three phases of Lemma 4, observed on a live trajectory.
//!
//! Runs a single traced Best-of-Three run on a dense graph, prints the
//! blue-fraction trajectory next to the idealised recursion (1), and then
//! segments the measured trajectory into the phases the proof of Lemma 4
//! predicts: geometric bias amplification (rate ≥ 5/4), quadratic decay, and
//! the final extinction step.
//!
//! ```text
//! cargo run --release --example phase_portrait -- --n 50000 --delta 0.02
//! ```

use bo3_core::prelude::*;
use bo3_examples::{banner, Args};
use bo3_theory::phases::phase_plan;
use bo3_theory::recursion::ideal_trajectory;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let n = args.get_or("n", 20_000usize);
    let delta = args.get_or("delta", 0.02f64);
    let seed = args.get_or("seed", 5u64);

    banner("Phase portrait of one Best-of-Three trajectory");
    println!("complete graph on {n} vertices, delta = {delta}");

    // The traced single-run drill-down needs materialised rows, so the spec
    // is built to a graph explicitly (K_n is deterministic; the seed only
    // matters for random families).
    let graph = TopologySpec::Materialised(GraphSpec::Complete { n })
        .build(seed)
        .expect("graph generation failed")
        .as_graph()
        .expect("materialised spec yields a graph")
        .clone();

    let simulator = Engine::on_graph(&graph).expect("engine").with_trace(true);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let initial = InitialCondition::BernoulliWithBias { delta }
        .sample(&graph, &mut rng)
        .expect("initial condition");
    let run = simulator
        .run(&ProtocolSpec::BestOfThree, initial, &mut rng)
        .expect("run failed");
    let trace = run.trace.as_ref().expect("trace enabled");

    // Side-by-side trajectory: measured vs. the idealised recursion (1).
    let measured = trace.blue_fractions();
    let ideal = ideal_trajectory(0.5 - delta, measured.len().saturating_sub(1));
    let table = trajectory_table(
        "Blue fraction per round (measured vs. equation (1))",
        &measured,
        &ideal,
        "eq(1) recursion",
    );
    println!("{}", table.to_pretty_string());

    // Phase segmentation.
    let observed = segment_trace(trace, n);
    println!("observed phases:");
    println!(
        "  bias amplification : {} rounds (measured growth rate {:.2} per round; Lemma 4 proves ≥ 1.25)",
        observed.bias_amplification_rounds,
        observed.measured_bias_growth_rate.unwrap_or(f64::NAN)
    );
    println!(
        "  decay to extinction: {} rounds after the 1/(2√3) hand-over point",
        observed
            .decay_rounds
            .map(|r| r.to_string())
            .unwrap_or_else(|| "-".into())
    );
    println!(
        "  total              : {} rounds, winner: {:?}",
        observed.total_rounds, run.winner
    );

    if let Some(plan) = phase_plan((n - 1) as f64, delta, 2.0) {
        println!();
        println!("paper's plan for the same parameters (proof constants, so conservative):");
        println!(
            "  T3 (bias amplification) = {}, T2 (quadratic decay) = {}, final step = {}, \
             upper levels = {}  → total {}",
            plan.t3_bias_amplification,
            plan.t2_quadratic_decay,
            plan.t1_final_step,
            plan.upper_levels,
            plan.total_levels()
        );
        let cmp = PhaseComparison::new(observed, plan);
        println!("  observed/planned total ratio: {:.2}", cmp.total_ratio());
    }
}
