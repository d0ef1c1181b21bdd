//! Regression suite for the determinism contract documented in
//! `crates/dynamics/src/parallel.rs`: every chunk of a synchronous round
//! derives its RNG from `(master_seed, round, chunk)`, so the simulation
//! output is bit-for-bit identical regardless of how many worker threads run
//! the chunks — and identical to a sequential run using the same derivation.

use bo3_core::prelude::*;
use bo3_integration::dense_scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MASTER_SEED: u64 = 0x00D3_7E12;

/// Builds the initial configuration shared by every run in a comparison.
fn shared_init(graph: &CsrGraph, delta: f64, seed: u64) -> Configuration {
    let mut rng = StdRng::seed_from_u64(seed);
    InitialCondition::BernoulliWithBias { delta }
        .sample(graph, &mut rng)
        .expect("initial condition")
}

#[test]
fn sequential_and_parallel_runs_are_bit_identical_at_1_2_and_8_threads() {
    // A graph larger than one chunk (CHUNK_SIZE = 4096), so the run
    // exercises the chunk → thread round-robin at every thread count.
    let (graph, delta) = dense_scenario(10_000, 42);
    let init = shared_init(&graph, delta, 7);

    let sequential = Engine::on_graph(&graph)
        .expect("engine")
        .with_trace(true)
        .run_seeded(&BestOfThree::new(), init.clone(), MASTER_SEED)
        .expect("sequential seeded run");
    assert!(sequential.reached_consensus(), "scenario must converge");

    for threads in [1usize, 2, 8] {
        let parallel = Engine::on_graph(&graph)
            .expect("engine")
            .with_threads(threads)
            .with_trace(true)
            .run_seeded(&BestOfThree::new(), init.clone(), MASTER_SEED)
            .expect("parallel run");
        // `RunResult` equality covers winner, round count, blue fractions
        // and the full per-round trace — bit-identical trajectories.
        assert_eq!(
            sequential, parallel,
            "parallel run with {threads} threads diverged from the sequential run"
        );
    }
}

#[test]
fn every_protocol_honours_the_thread_count_contract() {
    let (graph, delta) = dense_scenario(5_000, 3);
    let init = shared_init(&graph, delta, 11);

    let protocols: Vec<(&str, Box<dyn Protocol + Sync>)> = vec![
        ("voter", Box::new(Voter::new())),
        ("best-of-2", Box::new(BestOfTwo::keep_own())),
        ("best-of-3", Box::new(BestOfThree::new())),
        ("best-of-5", Box::new(BestOfK::new(5, TieRule::KeepOwn))),
        ("local-majority", Box::new(LocalMajority::keep_own())),
    ];
    for (name, protocol) in &protocols {
        // A fixed round budget keeps slow-converging baselines (voter) cheap:
        // the contract under test is trajectory equality, not consensus.
        let run_with = |threads: usize| {
            Engine::on_graph(&graph)
                .expect("engine")
                .with_threads(threads)
                .with_stopping(StoppingCondition::fixed_rounds(12))
                .with_trace(true)
                .run_seeded(protocol.as_ref(), init.clone(), MASTER_SEED)
                .expect("parallel run")
        };
        let one = run_with(1);
        let two = run_with(2);
        let eight = run_with(8);
        assert_eq!(one, two, "{name}: 1-thread vs 2-thread runs diverged");
        assert_eq!(two, eight, "{name}: 2-thread vs 8-thread runs diverged");
    }
}

#[test]
fn distinct_master_seeds_still_give_distinct_runs() {
    // Guards against a regression where the chunk derivation ignores the
    // master seed (everything would trivially be "deterministic").
    let (graph, delta) = dense_scenario(5_000, 5);
    let init = shared_init(&graph, delta, 13);
    let sim = Engine::on_graph(&graph).expect("engine").with_trace(true);
    let a = sim
        .run_seeded(&BestOfThree::new(), init.clone(), 1)
        .expect("run");
    let b = sim.run_seeded(&BestOfThree::new(), init, 2).expect("run");
    assert!(
        a.trace != b.trace || a.rounds != b.rounds,
        "different master seeds produced identical trajectories"
    );
}
