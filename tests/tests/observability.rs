//! Observer-neutrality regression suite.
//!
//! PR 8's hard constraint, pinned end to end: observability *reads* the
//! simulation and never perturbs it.  An engine with a recording
//! [`MetricsObserver`] installed must produce `RunResult`s bit-identical
//! to the default (Noop) engine — at 1, 2 and 8 threads, on both
//! schedules, with and without a composed adversary stack, on implicit
//! and materialised topologies — while its registry fills with an honest
//! account of the run (rounds, updates, rejection-sampler tries,
//! adversary tallies).  A campaign run must additionally land parseable
//! `metrics.json` / `metrics.prom` / `events.jsonl` artefacts without
//! disturbing the deterministic cell results.

use bo3_core::configio::Json;
use bo3_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0x0B5E;

/// Spans multiple 4096-vertex kernel chunks so chunk-boundary effects of
/// the per-chunk sampler totals cannot hide inside one work unit.
const N: usize = 9_000;

const ROUNDS: usize = 5;

fn prefix_blue(n: usize, blue: usize) -> Configuration {
    let mut config = Configuration::all_red(n);
    for v in 0..blue {
        config.set(v, Opinion::Blue);
    }
    config
}

/// Every adversary mechanism at once — the observed path has to forward
/// all the routing predicates (zealot skips, partition checks, drop
/// streams) untouched for this to stay bit-identical.
fn adversary_stack(n: usize) -> Adversary {
    Adversary::build(
        &[
            AdversarySpec::Zealots { fraction: 0.03 },
            AdversarySpec::Byzantine { fraction: 0.03 },
            AdversarySpec::Drop { q: 0.1 },
            AdversarySpec::Partition {
                from_round: 1,
                until_round: 3,
                blocks: 2,
            },
        ],
        n,
        SEED ^ 0xAD,
    )
    .expect("adversary stack")
}

/// Runs the Noop baseline at one thread, then the observed engine at
/// 1/2/8 threads across both schedules ± the adversary stack, demanding
/// bit-identical results and exact sampler totals throughout.  `rejects`
/// says whether the topology's sampler rejection-samples.
fn assert_observer_neutral<T: Topology>(make_topo: &dyn Fn() -> T, rejects: bool, label: &str) {
    let n = make_topo().n();
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        for adversarial in [false, true] {
            let configure = |threads: usize| {
                let engine = Engine::new(make_topo())
                    .unwrap()
                    .with_schedule(schedule)
                    .with_stopping(StoppingCondition::fixed_rounds(ROUNDS))
                    .with_threads(threads);
                if adversarial {
                    engine.with_adversary(adversary_stack(n))
                } else {
                    engine
                }
            };
            let baseline = configure(1)
                .run_seeded_kind(ProtocolKind::BestOfThree, prefix_blue(n, n / 2 - 300), 42)
                .expect("baseline run");
            assert_eq!(baseline.adversary.is_some(), adversarial);

            for threads in [1usize, 2, 8] {
                let ctx = format!("{label}/{}/adv={adversarial}/t{threads}", schedule.label());
                let observed = configure(threads).with_observer(MetricsObserver::new());
                let result = observed
                    .run_seeded_kind(ProtocolKind::BestOfThree, prefix_blue(n, n / 2 - 300), 42)
                    .expect("observed run");
                assert_eq!(result, baseline, "{ctx}: observer perturbed the run");

                let obs = observed.observer();
                assert_eq!(obs.rounds(), result.rounds as u64, "{ctx}: rounds");
                assert_eq!(
                    obs.updates(),
                    result.rounds as u64 * n as u64,
                    "{ctx}: updates"
                );
                let meter = obs.meter();
                // Every route meters: three accepted draws per vertex that
                // updated (zealots draw nothing) per round, in one try each
                // unless the sampler rejects.
                let zealots = result.adversary.map_or(0, |c| c.zealots) as u64;
                let accepts = 3 * (n as u64 - zealots) * result.rounds as u64;
                assert!(meter.accepts() > 0, "{ctx}: sampler unmetered");
                assert_eq!(meter.accepts(), accepts, "{ctx}: accepts");
                if rejects {
                    assert!(meter.tries() > accepts, "{ctx}: tries <= accepts");
                } else {
                    assert_eq!(meter.tries(), accepts, "{ctx}: tries != accepts");
                }
                let snapshot = obs.registry().snapshot_json();
                let parsed = Json::parse(&snapshot).expect("snapshot parses");
                for key in ["counters", "gauges", "histograms"] {
                    assert!(parsed.get(key).is_some(), "{ctx}: missing {key}");
                }
                if adversarial {
                    // The adversary tally lands in the registry too, and it
                    // agrees with the counters the run itself reported.
                    let counters = result.adversary.as_ref().expect("adversary counters");
                    assert!(
                        snapshot.contains(&format!("\"adversary_zealots\":{}", counters.zealots)),
                        "{ctx}: zealot gauge missing from {snapshot}"
                    );
                    assert!(
                        snapshot.contains(&format!(
                            "\"adversary_dropped_samples_total\":{}",
                            counters.dropped_samples
                        )),
                        "{ctx}: drop counter missing from {snapshot}"
                    );
                }
            }
        }
    }
}

#[test]
fn observer_is_neutral_on_the_complete_graph() {
    assert_observer_neutral(&|| Complete::new(N).unwrap(), false, "complete");
}

#[test]
fn observer_is_neutral_on_rejection_sampled_gnp() {
    assert_observer_neutral(
        &|| ImplicitGnp::new(N, 0.3, SEED).unwrap(),
        true,
        "implicit_gnp",
    );
}

#[test]
fn observer_is_neutral_on_materialised_graphs() {
    let graph = GraphSpec::ErdosRenyiGnp { n: N, p: 0.3 }
        .generate(&mut StdRng::seed_from_u64(SEED))
        .expect("graph");
    let graph = &graph;
    assert_observer_neutral(&|| CsrTopology::new(graph), false, "csr");
}

#[test]
fn seeded_steps_compose_to_the_run_and_count_rounds() {
    // Stepping `step_seeded_kind` round by round under the stopping
    // condition (the loop a hand-driven replica writes) must reproduce
    // `run_seeded_kind`, and the observer must count every stepped round:
    // the step entry points report rounds just like the run loop does.
    fn check<T: Topology>(topo: &T, label: &str) {
        let n = topo.n();
        let stopping = StoppingCondition::consensus_within(200);
        let initial = prefix_blue(n, n / 2 - 300);
        let reference = Engine::new(topo)
            .unwrap()
            .with_stopping(stopping)
            .with_trace(true)
            .run_seeded_kind(ProtocolKind::BestOfThree, initial.clone(), SEED)
            .expect("reference run");
        assert!(reference.reached_consensus(), "{label}: run must converge");
        let engine = Engine::new(topo)
            .unwrap()
            .with_observer(MetricsObserver::new());
        let mut next = Vec::new();
        let stepped = bo3_integration::step_to_end(&stopping, initial, |config, round| {
            engine.step_seeded_kind(ProtocolKind::BestOfThree, config, &mut next, SEED, round);
            config.overwrite_from(&next);
        });
        assert_eq!(stepped, reference, "{label}: steps diverged from the run");
        let obs = engine.observer();
        assert_eq!(obs.rounds(), reference.rounds as u64, "{label}: rounds");
        assert_eq!(
            obs.updates(),
            reference.rounds as u64 * n as u64,
            "{label}: updates"
        );
    }
    check(&Complete::new(N).unwrap(), "complete");
    check(&ImplicitGnp::new(N, 0.5, SEED).unwrap(), "implicit_gnp");
    let graph = GraphSpec::ErdosRenyiGnp { n: N, p: 0.05 }
        .generate(&mut StdRng::seed_from_u64(SEED))
        .expect("graph");
    check(&CsrTopology::new(&graph), "csr");
}

#[test]
fn gnp_try_rate_exceeds_one_and_complete_is_exactly_one() {
    let run = |topo: BuiltTopology| {
        let n = topo.n();
        let engine = Engine::new(topo)
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(3))
            .with_observer(MetricsObserver::new());
        engine
            .run_seeded_kind(ProtocolKind::BestOfThree, prefix_blue(n, n / 2), 7)
            .unwrap();
        engine.observer().tries_per_draw().expect("metered path")
    };
    let complete = run(TopologySpec::Complete { n: 2_000 }.build(SEED).unwrap());
    assert_eq!(complete, 1.0, "closed-form sampler never rejects");
    let gnp = run(TopologySpec::ImplicitGnp { n: 2_000, p: 0.3 }
        .build(SEED)
        .unwrap());
    // p = 0.3 accepts roughly one candidate in three.
    assert!(gnp > 2.0 && gnp < 6.0, "gnp try rate {gnp}");
}

#[test]
fn campaign_emits_parseable_observability_artefacts_and_identical_results() {
    let cell = |ratio: f64| {
        Experiment::on(TopologySpec::ImplicitSbm {
            n: 2_000,
            blocks: 2,
            p_in: ratio / (1.0 + ratio),
            p_out: 1.0 / (1.0 + ratio),
        })
        .named(format!("obs/r{ratio}"))
        .initial(InitialCondition::PrefixBlue { blue: 600 })
        .stopping(StoppingCondition::consensus_within(16))
        .replicas(2)
        .threads(2)
    };
    let campaign = || {
        Campaign::new("obs/artefacts", SEED)
            .add_cell(cell(2.0))
            .add_cell(cell(8.0))
    };

    let dir_a = std::env::temp_dir().join(format!("bo3_obs_art_a_{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("bo3_obs_art_b_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);

    let runner = CampaignRunner::new(campaign(), &dir_a).rounds_per_slice(4);
    assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);

    // metrics.json: the uniform registry snapshot schema.
    let metrics = std::fs::read_to_string(runner.metrics_json_path()).unwrap();
    let parsed = Json::parse(&metrics).expect("metrics.json parses");
    for key in ["counters", "gauges", "histograms"] {
        assert!(parsed.get(key).is_some(), "metrics.json missing {key}");
    }
    assert!(metrics.contains("\"campaign_cells_done_total\":2"));

    // metrics.prom: Prometheus text exposition.
    let prom = std::fs::read_to_string(runner.metrics_prom_path()).unwrap();
    assert!(prom.contains("# TYPE campaign_cells_done_total counter"));
    assert!(prom.contains("campaign_cells_done_total 2"));

    // events.jsonl: one parseable object per line, lifecycle included.
    let events = std::fs::read_to_string(runner.events_path()).unwrap();
    for line in events.lines() {
        Json::parse(line).expect("event line parses");
    }
    assert!(events.contains("\"event\":\"cell_done\""));
    assert!(events.contains("\"event\":\"campaign_completed\""));

    // The deterministic artefact set is untouched by observability: a
    // second, independent run produces byte-identical cell results.
    let again = CampaignRunner::new(campaign(), &dir_b).rounds_per_slice(4);
    assert_eq!(again.run().unwrap(), CampaignOutcome::Completed);
    for index in 0..2 {
        assert_eq!(
            std::fs::read(runner.cell_path(index)).unwrap(),
            std::fs::read(again.cell_path(index)).unwrap(),
            "cell {index} diverged"
        );
    }

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
