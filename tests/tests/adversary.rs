//! Adversarial-dynamics regression suite.
//!
//! Pins the `bo3_dynamics::adversary` contract end to end: seq == parallel
//! bit-identical adversarial runs at 1/2/8 threads on materialised and
//! implicit topologies, zero-strength adversaries bit-identical to the
//! unwrapped engine (the "compiles out" guarantee), mechanism semantics
//! (zealots freeze, Byzantine inverts, drop freezes at q = 1, partitions
//! sever inter-block messages), and the counters surfaced through
//! `RunResult`, `MonteCarlo` and `Experiment`.

use bo3_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xAD5E;

fn engine_on<T: Topology>(topo: T, rounds: usize, threads: usize) -> Engine<T> {
    Engine::new(topo)
        .unwrap()
        .with_stopping(StoppingCondition::fixed_rounds(rounds))
        .with_threads(threads)
}

fn prefix_blue(n: usize, blue: usize) -> Configuration {
    let mut config = Configuration::all_red(n);
    for v in 0..blue {
        config.set(v, Opinion::Blue);
    }
    config
}

fn all_adversaries() -> Vec<Vec<AdversarySpec>> {
    vec![
        vec![AdversarySpec::Zealots { fraction: 0.05 }],
        vec![AdversarySpec::ZealotIds {
            vertices: vec![1, 4_096, 8_191],
        }],
        vec![AdversarySpec::Byzantine { fraction: 0.05 }],
        vec![AdversarySpec::Drop { q: 0.15 }],
        vec![AdversarySpec::Partition {
            from_round: 1,
            until_round: 3,
            blocks: 2,
        }],
        // The composed stack: every mechanism at once.
        vec![
            AdversarySpec::Zealots { fraction: 0.03 },
            AdversarySpec::Byzantine { fraction: 0.03 },
            AdversarySpec::Drop { q: 0.1 },
            AdversarySpec::Partition {
                from_round: 0,
                until_round: 2,
                blocks: 2,
            },
        ],
    ]
}

// --- seq == parallel determinism ----------------------------------------

#[test]
fn adversarial_runs_are_thread_invariant_on_implicit_topologies() {
    // n = 9_000 spans multiple 4096-vertex kernel chunks, so a
    // chunk-boundary or thread-scheduling regression cannot hide inside one
    // work unit.
    let n = 9_000;
    for specs in all_adversaries() {
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        let adv = Adversary::build(&specs, n, SEED).unwrap();
        let run_with = |threads: usize| {
            engine_on(ImplicitSbm::new(n, 2, 0.5, 0.4, 31).unwrap(), 5, threads)
                .with_adversary(adv.clone())
                .run_seeded(&ProtocolSpec::BestOfThree, prefix_blue(n, n / 2 - 300), 42)
                .unwrap()
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2), "{labels:?}");
        assert_eq!(one, run_with(8), "{labels:?}");
        assert!(one.adversary.is_some(), "{labels:?}");
    }
}

#[test]
fn adversarial_runs_are_thread_invariant_on_materialised_graphs() {
    let graph = GraphSpec::DenseForAlpha {
        n: 9_000,
        alpha: 0.8,
    }
    .generate(&mut StdRng::seed_from_u64(3))
    .unwrap();
    for specs in all_adversaries() {
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        let adv = Adversary::build(&specs, graph.num_vertices(), SEED).unwrap();
        let run_with = |threads: usize| {
            engine_on(CsrTopology::new(&graph), 5, threads)
                .with_adversary(adv.clone())
                .run_seeded(
                    &ProtocolSpec::BestOfThree,
                    prefix_blue(graph.num_vertices(), 4_200),
                    42,
                )
                .unwrap()
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2), "{labels:?}");
        assert_eq!(one, run_with(8), "{labels:?}");
    }
}

#[test]
fn adversarial_async_runs_are_reproducible() {
    // Asynchronous rounds are sequential by definition; pin that the
    // adversarial async path is deterministic in the seed and indifferent
    // to the configured worker count.
    let n = 9_000;
    for specs in all_adversaries() {
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        let adv = Adversary::build(&specs, n, SEED).unwrap();
        let run_with = |threads: usize| {
            engine_on(Complete::new(n).unwrap(), 4, threads)
                .with_schedule(Schedule::AsynchronousRandomOrder)
                .with_adversary(adv.clone())
                .run_seeded(&ProtocolSpec::BestOfThree, prefix_blue(n, 4_000), 9)
                .unwrap()
        };
        let one = run_with(1);
        assert_eq!(one, run_with(8), "{labels:?}");
    }
}

// --- zero-strength adversaries compile out ------------------------------

#[test]
fn zero_strength_adversaries_are_bit_identical_to_the_unwrapped_engine() {
    let n = 9_000;
    let zero = [
        AdversarySpec::Zealots { fraction: 0.0 },
        AdversarySpec::Byzantine { fraction: 0.0 },
        AdversarySpec::Drop { q: 0.0 },
    ];
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        let topo = ImplicitGnp::new(n, 0.3, 17).unwrap();
        let honest = engine_on(topo, 6, 4)
            .with_schedule(schedule)
            .run_seeded(&ProtocolSpec::BestOfThree, prefix_blue(n, 4_200), 77)
            .unwrap();
        let wrapped = engine_on(topo, 6, 4)
            .with_schedule(schedule)
            .with_adversary(Adversary::build(&zero, n, SEED).unwrap())
            .run_seeded(&ProtocolSpec::BestOfThree, prefix_blue(n, 4_200), 77)
            .unwrap();
        // Same trajectory, draw for draw — only the counters differ.
        assert_eq!(honest.final_blue_fraction, wrapped.final_blue_fraction);
        assert_eq!(honest.rounds, wrapped.rounds);
        assert_eq!(honest.winner, wrapped.winner);
        assert_eq!(honest.adversary, None);
        let counters = wrapped.adversary.unwrap();
        assert_eq!(counters, AdversaryCounters::default());
    }
}

#[test]
fn zero_strength_caller_rng_runs_match_on_materialised_graphs() {
    // The caller-RNG path (Engine::run) must also consume the stream
    // sample-for-sample: identical RunResults from identical StdRng streams.
    let graph = GraphSpec::DenseForAlpha {
        n: 2_000,
        alpha: 0.8,
    }
    .generate(&mut StdRng::seed_from_u64(5))
    .unwrap();
    let n = graph.num_vertices();
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        let engine = Engine::on_graph(&graph)
            .unwrap()
            .with_schedule(schedule)
            .with_stopping(StoppingCondition::fixed_rounds(5));
        let honest = engine
            .run(
                &ProtocolSpec::BestOfThree,
                prefix_blue(n, 900),
                &mut StdRng::seed_from_u64(12),
            )
            .unwrap();
        let wrapped = Engine::on_graph(&graph)
            .unwrap()
            .with_schedule(schedule)
            .with_stopping(StoppingCondition::fixed_rounds(5))
            .with_adversary(Adversary::build(&[AdversarySpec::Drop { q: 0.0 }], n, SEED).unwrap())
            .run(
                &ProtocolSpec::BestOfThree,
                prefix_blue(n, 900),
                &mut StdRng::seed_from_u64(12),
            )
            .unwrap();
        assert_eq!(honest.final_blue_fraction, wrapped.final_blue_fraction);
        assert_eq!(honest.winner, wrapped.winner);
        assert_eq!(wrapped.adversary.unwrap().dropped_samples, 0);
    }
}

// --- mechanism semantics -------------------------------------------------

#[test]
fn byzantine_inversion_flips_an_all_red_complete_graph_in_one_round() {
    // Every reporter lies, so every sample of a red vertex reads blue: one
    // synchronous Best-of-Three round turns all-red into all-blue.
    let n = 600;
    let adv = Adversary::build(&[AdversarySpec::Byzantine { fraction: 1.0 }], n, SEED).unwrap();
    assert_eq!(adv.byzantine_count(), n);
    let result = engine_on(Complete::new(n).unwrap(), 1, 2)
        .with_adversary(adv)
        .run_seeded(&ProtocolSpec::BestOfThree, Configuration::all_red(n), 4)
        .unwrap();
    assert_eq!(result.final_blue_fraction, 1.0);
}

#[test]
fn full_drop_freezes_the_configuration_and_counts_every_sample() {
    // q = 1: every sample falls back to self-opinion, so nothing can move,
    // and the counter records exactly n · k · rounds lost samples.
    let n = 500;
    let rounds = 3usize;
    let adv = Adversary::build(&[AdversarySpec::Drop { q: 1.0 }], n, SEED).unwrap();
    let initial = prefix_blue(n, 123);
    let result = engine_on(Complete::new(n).unwrap(), rounds, 2)
        .with_adversary(adv)
        .run_seeded(&ProtocolSpec::BestOfThree, initial.clone(), 4)
        .unwrap();
    assert_eq!(result.final_blue_fraction, initial.blue_fraction());
    assert_eq!(
        result.adversary.unwrap().dropped_samples,
        (n * 3 * rounds) as u64
    );
}

#[test]
fn partitions_sever_inter_block_messages_while_active() {
    // Two SBM blocks, block 0 all blue, block 1 all red.  While the
    // partition is active every cross-block sample is lost, so each block
    // only ever hears its own unanimous colour and the configuration is a
    // fixed point; the moment it heals, cross-block traffic resumes.
    let n = 2_000;
    let topo = ImplicitSbm::new(n, 2, 0.5, 0.4, 7).unwrap();
    let partition = AdversarySpec::Partition {
        from_round: 0,
        until_round: 4,
        blocks: 2,
    };
    let adv = Adversary::build(&[partition], n, SEED).unwrap();
    let frozen = engine_on(topo, 4, 2)
        .with_adversary(adv.clone())
        .run_seeded(&ProtocolSpec::BestOfThree, prefix_blue(n, n / 2), 11)
        .unwrap();
    assert_eq!(
        frozen.final_blue_fraction, 0.5,
        "a severed 50/50 split must not move"
    );
    let counters = frozen.adversary.unwrap();
    assert_eq!(counters.partition_rounds, 4);
    assert!(counters.dropped_samples > 0, "p_out samples must be lost");
    // One round past the healing point, cross-block samples flow again and
    // the dead heat starts resolving.
    let healed = engine_on(topo, 8, 2)
        .with_adversary(adv)
        .run_seeded(&ProtocolSpec::BestOfThree, prefix_blue(n, n / 2), 11)
        .unwrap();
    assert!(
        (healed.final_blue_fraction - 0.5).abs() > 1e-9,
        "after healing the configuration must move"
    );
    assert_eq!(healed.adversary.unwrap().partition_rounds, 4);
}

#[test]
fn counters_surface_through_monte_carlo_and_experiment() {
    let mut mc = MonteCarlo::best_of_three(0.1, 4, 3);
    mc.stopping = StoppingCondition::fixed_rounds(3);
    mc.adversary = vec![
        AdversarySpec::Zealots { fraction: 0.1 },
        AdversarySpec::Drop { q: 0.2 },
    ];
    let topo = Complete::new(1_000).unwrap();
    let report = mc.run_on_topology(&topo).unwrap();
    let total = report.adversary.unwrap();
    assert!(total.zealots > 0);
    assert!(total.dropped_samples > 0);
    // Membership is fixed across replicas (max-merged), events accumulate.
    let per_replica: Vec<AdversaryCounters> = report
        .outcomes
        .iter()
        .map(|o| o.adversary.unwrap())
        .collect();
    assert!(per_replica.iter().all(|c| c.zealots == total.zealots));
    assert_eq!(
        per_replica.iter().map(|c| c.dropped_samples).sum::<u64>(),
        total.dropped_samples
    );
    // Replicas draw their drop coins from distinct streams.
    assert!(
        per_replica
            .windows(2)
            .any(|w| w[0].dropped_samples != w[1].dropped_samples),
        "{per_replica:?}"
    );

    // The same scenario through the Experiment surface.
    let result = Experiment::on(TopologySpec::Complete { n: 1_000 })
        .named("adversary/counters")
        .stopping(StoppingCondition::fixed_rounds(3))
        .adversary(AdversarySpec::Zealots { fraction: 0.1 })
        .adversary(AdversarySpec::Drop { q: 0.2 })
        .replicas(4)
        .seed(3)
        .run()
        .unwrap();
    let counters = result.adversary_counters().unwrap();
    assert!(counters.zealots > 0);
    assert!(counters.dropped_samples > 0);
}

#[test]
fn monte_carlo_adversarial_batches_are_thread_invariant() {
    let topo = ImplicitGnp::new(1_500, 0.4, 31).unwrap();
    let mut mc = MonteCarlo::best_of_three(0.12, 8, 5);
    mc.adversary = vec![
        AdversarySpec::Zealots { fraction: 0.05 },
        AdversarySpec::Drop { q: 0.1 },
    ];
    mc.threads = 1;
    let seq = mc.run_on_topology(&topo).unwrap();
    mc.threads = 4;
    let par = mc.run_on_topology(&topo).unwrap();
    assert_eq!(seq.outcomes, par.outcomes);
    assert_eq!(seq.adversary, par.adversary);
}

#[test]
fn custom_dyn_protocols_reject_adversaries_with_a_typed_error() {
    let graph = GraphSpec::Complete { n: 50 }
        .generate(&mut StdRng::seed_from_u64(0))
        .unwrap();
    let engine = Engine::on_graph(&graph)
        .unwrap()
        .with_adversary(Adversary::build(&[AdversarySpec::Drop { q: 0.5 }], 50, SEED).unwrap());
    let dyn_only = DynOnly(ProtocolSpec::BestOfThree);
    let err = engine
        .run(
            &dyn_only,
            Configuration::all_red(50),
            &mut StdRng::seed_from_u64(1),
        )
        .unwrap_err();
    assert!(
        matches!(err, DynamicsError::InvalidParameter { .. }),
        "{err}"
    );
}

// --- zealots never change (proptest) -------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zealot_opinions_never_change(
        fraction in 0.0f64..0.5,
        blue in 0usize..800,
        seed in any::<u64>(),
        q in 0.0f64..0.5,
    ) {
        let n = 800;
        let topo = Complete::new(n).unwrap();
        let adv = Adversary::build(
            &[
                AdversarySpec::Zealots { fraction },
                AdversarySpec::Drop { q },
            ],
            n,
            seed,
        )
        .unwrap();
        let zealots: Vec<usize> = (0..n).filter(|&v| adv.is_zealot(v)).collect();
        prop_assert_eq!(zealots.len(), adv.zealot_count());
        let engine = Engine::new(&topo)
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(1))
            .with_adversary(adv);
        // Step round by round so the invariant is checked at every point of
        // the trajectory, not just at the end.
        let initial = prefix_blue(n, blue);
        let frozen: Vec<Opinion> = zealots.iter().map(|&v| initial.get(v)).collect();
        let mut current = initial;
        let mut next: Vec<Opinion> = Vec::new();
        for round in 0..6u64 {
            engine.step_seeded(&ProtocolSpec::BestOfThree, &current, &mut next, seed, round);
            current.overwrite_from(&next);
            for (&v, &opinion) in zealots.iter().zip(frozen.iter()) {
                prop_assert_eq!(current.get(v), opinion, "round {} vertex {}", round, v);
            }
        }
    }
}
