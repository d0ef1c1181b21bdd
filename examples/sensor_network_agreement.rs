//! Scenario: binary agreement in a sensor mesh vs. a dense overlay.
//!
//! A fleet of sensors must agree on a binary reading (e.g. "threshold
//! exceeded") where each sensor's local measurement is wrong with probability
//! `1/2 − δ`.  Two communication topologies are compared:
//!
//! * a 2-D torus mesh (constant degree — *outside* the paper's dense regime),
//! * a random `d`-regular overlay with `d = n^α` (inside the regime).
//!
//! Best-of-Three needs only three samples per round per sensor, and on the
//! dense overlay it reaches the correct consensus in a handful of rounds —
//! the `O(log log n)` behaviour of Theorem 1 — while the mesh pays for its
//! sparse connectivity.
//!
//! ```text
//! cargo run --release --example sensor_network_agreement -- --side 100 --delta 0.1
//! ```

use bo3_core::prelude::*;
use bo3_examples::{banner, rounds_with_spread, Args};

fn agreement_on(
    name: &str,
    topology: impl Into<TopologySpec>,
    delta: f64,
    replicas: usize,
    seed: u64,
) -> ExperimentResult {
    Experiment::on(topology)
        .named(name)
        .protocol(ProtocolSpec::BestOfThree)
        .initial(InitialCondition::BernoulliWithBias { delta })
        .stopping(StoppingCondition::consensus_within(20_000))
        .replicas(replicas)
        .seed(seed)
        .run()
        .expect("experiment failed")
}

fn main() {
    let args = Args::from_env();
    let side = args.get_or("side", 100usize);
    let delta = args.get_or("delta", 0.1f64);
    let replicas = args.get_or("replicas", 8usize);
    let seed = args.get_or("seed", 7u64);

    let n = side * side;
    let alpha = 0.6;
    let d = (((n as f64).powf(alpha).round() as usize) & !1usize).max(2); // even => n*d even for any n

    banner("Sensor-network agreement: mesh vs. dense overlay");
    println!(
        "{n} sensors, each initially wrong with probability 1/2 − {delta}; \
         the correct reading is 'red'"
    );

    let mesh = agreement_on(
        "sensors/torus-mesh",
        GraphSpec::Torus2d {
            rows: side,
            cols: side,
        },
        delta,
        replicas,
        seed,
    );
    let overlay = agreement_on(
        "sensors/dense-overlay",
        GraphSpec::RandomRegular { n, d },
        delta,
        replicas,
        seed,
    );

    println!();
    println!(
        "torus mesh (degree 4)        : correct consensus in {:.0}% of replicas, {}",
        mesh.red_win_rate().unwrap_or(0.0) * 100.0,
        rounds_with_spread(
            mesh.mean_rounds(),
            mesh.report.rounds_to_consensus.as_ref().map(|s| s.p90)
        )
    );
    println!(
        "dense overlay (degree {d:>4}) : correct consensus in {:.0}% of replicas, {}",
        overlay.red_win_rate().unwrap_or(0.0) * 100.0,
        rounds_with_spread(
            overlay.mean_rounds(),
            overlay.report.rounds_to_consensus.as_ref().map(|s| s.p90)
        )
    );
    if let Some(pred) = overlay.prediction.computed() {
        println!(
            "paper regime check for the overlay: alpha ≈ {:.2}, in-theorem-regime = {}",
            overlay.alpha().unwrap_or(f64::NAN),
            pred.in_theorem_regime
        );
    }
    println!();
    println!(
        "The overlay pays O(1) messages per sensor per round (3 samples) and still converges in \
         O(log log n) rounds; the mesh's constant degree puts it outside Theorem 1 and its \
         consensus time grows with the graph diameter instead."
    );

    println!();
    let table = results_table("Sensor-network scenario", &[mesh, overlay]);
    println!("{}", table.to_pretty_string());
}
