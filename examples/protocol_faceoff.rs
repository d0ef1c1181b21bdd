//! Scenario: head-to-head comparison of voting protocols.
//!
//! Runs the whole comparison set — voter (Best-of-1), Best-of-2, Best-of-3,
//! Best-of-5 and deterministic local majority — on the same dense graph with
//! the same initial bias, and prints consensus time and majority-win rate for
//! each.  This is the interactive version of experiment E3/E5.
//!
//! ```text
//! cargo run --release --example protocol_faceoff -- --n 5000 --delta 0.08
//! ```

use bo3_core::prelude::*;
use bo3_examples::{banner, Args};

fn main() {
    let args = Args::from_env();
    let n = args.get_or("n", 5_000usize);
    let delta = args.get_or("delta", 0.08f64);
    let replicas = args.get_or("replicas", 10usize);
    let seed = args.get_or("seed", 99u64);

    banner("Protocol face-off on a dense random graph");
    println!("graph: G(n, p) with n = {n} and expected degree n^0.75; delta = {delta}");

    let graph_spec = GraphSpec::DenseForAlpha { n, alpha: 0.75 };

    let mut results = Vec::new();
    for (label, protocol) in comparison_protocols() {
        // The voter model needs a far larger round budget; everything else
        // converges in a handful of rounds.
        let (cap, reps) = if matches!(protocol, ProtocolSpec::Voter) {
            (2_000_000, 2.min(replicas))
        } else {
            (20_000, replicas)
        };
        let experiment = Experiment::on(graph_spec.clone())
            .named(format!("faceoff/{label}"))
            .protocol(protocol)
            .initial(InitialCondition::BernoulliWithBias { delta })
            .stopping(StoppingCondition::consensus_within(cap))
            .replicas(reps)
            .seed(seed);
        let result = experiment.run().expect("experiment failed");
        println!(
            "{label:<16} mean rounds: {:>10}   majority wins: {}",
            fmt_opt_f64(result.mean_rounds()),
            fmt_opt_f64(result.red_win_rate()),
        );
        results.push(result);
    }

    println!();
    let table = results_table("Protocol face-off", &results);
    println!("{}", table.to_pretty_string());
    println!(
        "Reading: Best-of-2/3/5 amplify the initial majority and converge in O(log log n)-ish \
         time; the voter model is both slow (Θ(n) expected on dense graphs) and only wins in \
         proportion to the initial share; local majority is fastest but reads whole \
         neighbourhoods every round."
    );
}
