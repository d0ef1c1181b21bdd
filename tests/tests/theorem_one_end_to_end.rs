//! End-to-end checks of the headline claim (Theorem 1) across crates:
//! graph generation → dynamics → consensus, compared against the theory
//! crate's regime classification.

use bo3_core::prelude::*;
use bo3_integration::{dense_scenario, mean_consensus_time, sparse_scenario, traced_run};

#[test]
fn dense_graph_reaches_red_consensus_in_a_handful_of_rounds() {
    let (graph, delta) = dense_scenario(3_000, 1);
    let run = traced_run(&graph, delta, 7);
    assert!(run.red_won(), "red should win: {:?}", run.stop_reason);
    assert!(run.rounds <= 15, "took {} rounds", run.rounds);
    // The theory side classifies this point as inside the theorem regime.
    let stats = DegreeStats::of(&graph).unwrap();
    let pred = predict(
        graph.num_vertices() as f64,
        stats.alpha().unwrap(),
        delta,
        2.0,
    );
    assert!(pred.in_theorem_regime);
}

#[test]
fn consensus_time_is_flat_while_n_grows() {
    let mut means = Vec::new();
    for (i, n) in [800usize, 3_200, 12_800].into_iter().enumerate() {
        let (graph, delta) = dense_scenario(n, 10 + i as u64);
        let mean = mean_consensus_time(&graph, ProtocolSpec::BestOfThree, delta, 4, 99)
            .expect("consensus");
        means.push(mean);
    }
    let spread = means.iter().cloned().fold(f64::MIN, f64::max)
        - means.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread <= 4.0, "means {means:?}");
}

#[test]
fn every_replica_of_a_monte_carlo_batch_ends_red() {
    let (graph, delta) = dense_scenario(2_000, 3);
    // The spec only names the topology for the report; run_on supplies the
    // already generated graph.
    let exp = Experiment::on(GraphSpec::Complete { n: 1 })
        .named("it/theorem-one")
        .protocol(ProtocolSpec::BestOfThree)
        .initial(InitialCondition::BernoulliWithBias { delta })
        .stopping(StoppingCondition::consensus_within(10_000))
        .replicas(12)
        .seed(5);
    let result = exp.run_on(&graph).unwrap();
    assert!(result.red_swept());
    assert!((result.report.consensus_rate - 1.0).abs() < 1e-12);
}

#[test]
fn sparse_torus_is_far_slower_than_a_dense_graph_of_the_same_size() {
    // 32x32 torus (n = 1024, degree 4) vs a dense graph on 1024 vertices.
    let torus = sparse_scenario(32);
    let (dense, _) = dense_scenario(1_024, 4);
    let delta = 0.15;
    let torus_time =
        mean_consensus_time(&torus, ProtocolSpec::BestOfThree, delta, 3, 1).expect("torus");
    let dense_time =
        mean_consensus_time(&dense, ProtocolSpec::BestOfThree, delta, 3, 1).expect("dense");
    assert!(
        torus_time > 2.0 * dense_time,
        "torus {torus_time} vs dense {dense_time}"
    );
}

#[test]
fn blue_initial_majority_flips_the_outcome() {
    // The protocol amplifies whatever the initial majority is; with the roles
    // swapped (blue majority), blue must win.
    let (graph, _) = dense_scenario(1_500, 6);
    let sim = Engine::on_graph(&graph).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    use rand::SeedableRng;
    let init = InitialCondition::Bernoulli {
        blue_probability: 0.62,
    }
    .sample(&graph, &mut rng)
    .unwrap();
    let run = sim.run(&ProtocolSpec::BestOfThree, init, &mut rng).unwrap();
    assert_eq!(run.winner, Some(Opinion::Blue));
}
