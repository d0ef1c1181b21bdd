//! Cross-crate behavioural comparisons: protocol baselines and the
//! synchronous/asynchronous and sequential/parallel ablations.

use bo3_core::prelude::*;
use bo3_integration::{dense_scenario, mean_consensus_time};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn voter_model_is_an_order_of_magnitude_slower() {
    let (graph, delta) = dense_scenario(600, 1);
    let bo3 = mean_consensus_time(&graph, ProtocolSpec::BestOfThree, delta, 3, 1).unwrap();
    let voter = mean_consensus_time(&graph, ProtocolSpec::Voter, delta, 2, 1).unwrap();
    assert!(voter > 10.0 * bo3, "voter {voter} vs best-of-3 {bo3}");
}

#[test]
fn best_of_two_and_three_are_comparable() {
    let (graph, delta) = dense_scenario(2_000, 2);
    let bo2 = mean_consensus_time(
        &graph,
        ProtocolSpec::BestOfTwo {
            tie_rule: TieRule::KeepOwn,
        },
        delta,
        4,
        2,
    )
    .unwrap();
    let bo3 = mean_consensus_time(&graph, ProtocolSpec::BestOfThree, delta, 4, 2).unwrap();
    assert!((bo2 - bo3).abs() <= 4.0, "bo2 {bo2} vs bo3 {bo3}");
}

#[test]
fn local_majority_is_the_speed_limit() {
    let (graph, delta) = dense_scenario(2_000, 3);
    let majority = mean_consensus_time(
        &graph,
        ProtocolSpec::LocalMajority {
            tie_rule: TieRule::KeepOwn,
        },
        delta,
        4,
        3,
    )
    .unwrap();
    let bo3 = mean_consensus_time(&graph, ProtocolSpec::BestOfThree, delta, 4, 3).unwrap();
    assert!(majority <= bo3 + 0.5, "majority {majority} vs bo3 {bo3}");
    assert!(majority <= 3.0);
}

#[test]
fn asynchronous_schedule_still_converges_to_red() {
    let (graph, delta) = dense_scenario(1_200, 4);
    let mc = MonteCarlo {
        protocol: ProtocolSpec::BestOfThree,
        initial: InitialCondition::BernoulliWithBias { delta },
        schedule: Schedule::AsynchronousRandomOrder,
        stopping: StoppingCondition::consensus_within(10_000),
        replicas: 4,
        master_seed: 4,
        threads: 0,
        adversary: Vec::new(),
    };
    let report = mc.run(&graph).unwrap();
    assert!((report.consensus_rate - 1.0).abs() < 1e-12);
    let red = report.red_win.unwrap();
    assert_eq!(red.successes, red.trials);
}

#[test]
fn parallel_stepper_agrees_with_itself_across_thread_counts() {
    let (graph, delta) = dense_scenario(3_000, 5);
    let mut rng = StdRng::seed_from_u64(6);
    let init = InitialCondition::BernoulliWithBias { delta }
        .sample(&graph, &mut rng)
        .unwrap();
    let run = |threads: usize| {
        Engine::on_graph(&graph)
            .unwrap()
            .with_threads(threads)
            .with_trace(true)
            .run_seeded(&BestOfThree::new(), init.clone(), 777)
            .unwrap()
    };
    let one = run(1);
    let many = run(6);
    assert_eq!(one, many);
    assert!(one.red_won());
}

#[test]
fn sampling_without_replacement_changes_little_on_dense_graphs() {
    // Ablation: the paper samples *with* replacement; on dense graphs the
    // difference is negligible. We approximate "without replacement" by the
    // local-majority-of-3-distinct-samples protocol implemented via
    // sample_without_replacement and compare one-round statistics on the
    // complete graph.
    let graph = GraphSpec::Complete { n: 2_000 }
        .generate(&mut StdRng::seed_from_u64(7))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    let blue_share = 0.4;
    let blue_count = (2_000.0 * blue_share) as usize;
    let opinions: Vec<Opinion> = (0..2_000)
        .map(|v| {
            if v < blue_count {
                Opinion::Blue
            } else {
                Opinion::Red
            }
        })
        .collect();
    let trials = 20_000;
    let mut with_repl_blue = 0usize;
    let mut without_repl_blue = 0usize;
    use rand::Rng;
    for _ in 0..trials {
        let v = 1_999; // a red vertex
        let picks: [usize; 3] = {
            let mut out = [0usize; 3];
            for slot in &mut out {
                let i = rng.gen_range(0..graph.degree(v));
                *slot = graph.neighbour_at(v, i);
            }
            out
        };
        if picks.iter().filter(|&&w| opinions[w].is_blue()).count() >= 2 {
            with_repl_blue += 1;
        }
        let distinct = sample_without_replacement(&graph, v, 3, &mut rng);
        if distinct.iter().filter(|&&w| opinions[w].is_blue()).count() >= 2 {
            without_repl_blue += 1;
        }
    }
    let a = with_repl_blue as f64 / trials as f64;
    let b = without_repl_blue as f64 / trials as f64;
    assert!((a - b).abs() < 0.02, "with {a} vs without {b}");
}

/// Samples `k` distinct neighbours of `v` (without replacement), or all of
/// them when `deg(v) < k` — the "without replacement" ablation's sampler.
///
/// Floyd's subset-sampling algorithm: one bounded draw per sample and a
/// membership scan over the (small) output, relying on the CSR row holding
/// no duplicate neighbours.
fn sample_without_replacement(
    graph: &CsrGraph,
    v: usize,
    k: usize,
    rng: &mut impl rand::Rng,
) -> Vec<usize> {
    let row = graph.neighbours(v);
    let take = k.min(row.len());
    let mut out = Vec::with_capacity(take);
    for j in row.len() - take..row.len() {
        let pick = row[rng.gen_range(0..=j)];
        out.push(if out.contains(&pick) { row[j] } else { pick });
    }
    out.into_iter().map(|w| w as usize).collect()
}

#[test]
fn sample_without_replacement_gives_distinct_vertices() {
    let g = GraphSpec::Complete { n: 10 }
        .generate(&mut StdRng::seed_from_u64(0))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let picks = sample_without_replacement(&g, 4, 5, &mut rng);
    assert_eq!(picks.len(), 5);
    let mut sorted = picks.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), 5, "samples must be distinct");
    for w in picks {
        assert!(g.has_edge(4, w));
    }
}

#[test]
fn sample_without_replacement_caps_at_degree() {
    let g = GraphSpec::Cycle { n: 5 }
        .generate(&mut StdRng::seed_from_u64(0))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let picks = sample_without_replacement(&g, 0, 10, &mut rng);
    assert_eq!(picks.len(), 2);
}

#[test]
fn sample_without_replacement_is_uniform_over_neighbours() {
    // Floyd's algorithm must give every neighbour the same marginal
    // inclusion probability k/deg.
    let g = GraphSpec::Complete { n: 21 }
        .generate(&mut StdRng::seed_from_u64(0))
        .unwrap();
    let mut rng = StdRng::seed_from_u64(22);
    let trials = 40_000;
    let k = 5;
    let mut counts = [0usize; 21];
    for _ in 0..trials {
        for w in sample_without_replacement(&g, 0, k, &mut rng) {
            counts[w] += 1;
        }
    }
    assert_eq!(counts[0], 0, "vertex 0 must never sample itself");
    let expected = trials as f64 * k as f64 / 20.0;
    for &c in &counts[1..] {
        assert!(
            (c as f64 - expected).abs() < expected * 0.05,
            "count {c} vs {expected}"
        );
    }
}
