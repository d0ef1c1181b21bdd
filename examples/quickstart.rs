//! Quickstart: Theorem 1 through the builder-style Scenario API.
//!
//! Part 1 generates a dense Erdős–Rényi graph in the paper's regime
//! (`d ≈ n^α`), seeds every vertex blue with probability `1/2 − δ`, runs the
//! Best-of-Three dynamics over several Monte-Carlo replicas, and prints the
//! measured consensus time next to the paper's
//! `O(log log n) + O(log δ⁻¹)` prediction.
//!
//! Part 2 runs the same experiment on an *implicit* `G(n, 1/2)` at
//! `n = 10⁶` — a graph whose CSR adjacency would need terabytes, previously
//! impossible through `Experiment` — by swapping one line: the
//! `TopologySpec`.
//!
//! ```text
//! cargo run --release --example quickstart -- --n 20000 --alpha 0.8 --delta 0.05
//! ```

use bo3_core::prelude::*;
use bo3_examples::{banner, rounds_with_spread, Args};

fn main() {
    let args = Args::from_env();
    let n = args.get_or("n", 20_000usize);
    let alpha = args.get_or("alpha", 0.8f64);
    let delta = args.get_or("delta", 0.05f64);
    let replicas = args.get_or("replicas", 10usize);
    let seed = args.get_or("seed", 1u64);
    let scale_n = args.get_or("scale-n", 1_000_000usize);

    banner("Best-of-Three voting on a dense graph (Theorem 1)");
    println!(
        "n = {n}, target degree n^{alpha} ≈ {:.0}, delta = {delta}",
        (n as f64).powf(alpha)
    );

    let result = Experiment::on(GraphSpec::DenseForAlpha { n, alpha })
        .named(format!("quickstart/n={n}"))
        .initial(InitialCondition::BernoulliWithBias { delta })
        .stopping(StoppingCondition::consensus_within(10_000))
        .replicas(replicas)
        .seed(seed)
        .run()
        .expect("experiment failed");

    println!();
    println!("topology: {}", result.topology_label);
    if let Some(stats) = result.degree_stats.computed() {
        println!(
            "realised degrees: min {}, mean {:.1}, alpha {:.3}",
            stats.min,
            stats.mean,
            stats.alpha().unwrap_or(f64::NAN),
        );
    }
    println!(
        "consensus: {} of {} replicas converged, red won {:.0}% of them",
        (result.report.consensus_rate * result.report.outcomes.len() as f64).round(),
        result.report.outcomes.len(),
        result.red_win_rate().unwrap_or(0.0) * 100.0
    );
    println!(
        "measured consensus time: {}",
        rounds_with_spread(
            result.mean_rounds(),
            result.report.rounds_to_consensus.as_ref().map(|s| s.p90)
        )
    );
    if let Some(pred) = result.prediction.computed() {
        println!(
            "paper prediction: within-theorem-regime = {}, proof-constant bound ≈ {} rounds, \
             idealised (eq. 1) reference ≈ {} rounds",
            pred.in_theorem_regime,
            pred.predicted_rounds
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into()),
            pred.ideal_rounds
                .map(|r| r.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }

    banner(&format!(
        "The same experiment at n = {scale_n} — implicit G(n, 1/2)"
    ));
    println!(
        "swapping the TopologySpec is the whole migration: the graph below is \
         never materialised (its CSR would need ~{} GB)",
        bo3_core::bo3_graph::csr_bytes(scale_n, scale_n.saturating_mul(scale_n) / 2)
            / 1_000_000_000
    );

    let scale_result = Experiment::on(TopologySpec::ImplicitGnp { n: scale_n, p: 0.5 })
        .named(format!("quickstart/implicit-n={scale_n}"))
        .initial(InitialCondition::BernoulliWithBias { delta: 0.15 })
        .stopping(StoppingCondition::consensus_within(10_000))
        .replicas(1)
        .seed(seed)
        .run()
        .expect("implicit experiment failed");

    println!(
        "topology: {} ({} bytes of state)",
        scale_result.topology_label, scale_result.topology_memory_bytes
    );
    println!(
        "degree stats: {}",
        scale_result
            .degree_stats
            .skipped_reason()
            .unwrap_or("computed")
    );
    println!(
        "consensus: red won {:.0}% of replicas, {}",
        scale_result.red_win_rate().unwrap_or(0.0) * 100.0,
        rounds_with_spread(
            scale_result.mean_rounds(),
            scale_result
                .report
                .rounds_to_consensus
                .as_ref()
                .map(|s| s.p90)
        )
    );

    println!();
    let table = results_table("Quickstart summary", &[result, scale_result]);
    println!("{}", table.to_pretty_string());
}
