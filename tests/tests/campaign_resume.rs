//! Kill-point sweep for the checkpointable engine and the crash-safe
//! campaign runner.
//!
//! The crash-safety claim is absolute: a run paused at *any* round
//! boundary and resumed — in the same process or from re-parsed JSON, at
//! any thread count — finishes bit-identically to the uninterrupted run,
//! and a campaign killed between or inside cells regenerates byte-identical
//! artefacts.  This suite sweeps every kill point instead of sampling a
//! few: for an `R`-round run it pauses once at each `k ∈ 0..R`, resumes,
//! and compares full [`RunResult`] equality (winner, rounds, fractions and
//! the entire per-round trace).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bo3_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xC4A5;

/// A run long enough to have interesting kill points but quick enough to
/// sweep exhaustively.
const N: usize = 3_000;

fn initial(n: usize) -> Configuration {
    // Deterministic prefix start: no RNG involved, so every engine in a
    // comparison starts from the same configuration by construction.
    let mut config = Configuration::all_red(n);
    for v in 0..(2 * n / 5) {
        config.set(v, Opinion::Blue);
    }
    config
}

fn adversary_stack(n: usize) -> Adversary {
    Adversary::build(
        &[
            AdversarySpec::Zealots { fraction: 0.01 },
            AdversarySpec::Drop { q: 0.05 },
        ],
        n,
        SEED ^ 0xAD,
    )
    .expect("adversary stack")
    .with_stream_seed(SEED ^ 0x5EED)
}

/// Runs the same seeded scenario uninterrupted, then once per kill point
/// `k`: pause after `k` rounds, resume to the end, demand equality.
fn sweep_kill_points<T: Topology + Sync>(
    make_engine: &dyn Fn() -> Engine<T>,
    kind: ProtocolKind,
    label: &str,
) {
    let n = make_engine().topology().n();
    let reference = make_engine()
        .run_seeded_kind(kind, initial(n), SEED)
        .expect("uninterrupted run");
    assert!(reference.rounds > 2, "{label}: sweep needs a few rounds");

    for k in 0..=reference.rounds {
        let outcome = make_engine()
            .run_seeded_kind_budgeted(kind, initial(n), SEED, &RunBudget::rounds_per_slice(k))
            .unwrap_or_else(|e| panic!("{label}: budgeted run at k={k}: {e}"));
        match outcome {
            RunOutcome::Completed(result) => {
                // Only a slice at least as long as the whole run completes.
                assert!(k >= reference.rounds, "{label}: completed early at k={k}");
                assert_eq!(result, reference, "{label}: complete-in-slice k={k}");
            }
            RunOutcome::Paused(checkpoint) => {
                assert_eq!(checkpoint.round, k, "{label}: paused at wrong round");
                let resumed = make_engine()
                    .resume(&checkpoint, &RunBudget::unlimited())
                    .unwrap_or_else(|e| panic!("{label}: resume at k={k}: {e}"))
                    .completed()
                    .expect("an unlimited budget completes");
                assert_eq!(resumed, reference, "{label}: kill point k={k}");
            }
        }
    }
}

#[test]
fn every_kill_point_resumes_bit_identically_on_implicit_topologies() {
    // One chunk, and three chunks whose last one ends inside a word: a
    // checkpoint copies the state's words verbatim, so a chunk writer that
    // left bits past `n`, or a stale swap buffer, would show here.
    let multi_chunk = 2 * bo3_dynamics::parallel::CHUNK_SIZE + 37;
    for (n, thread_counts) in [(N, &[1usize, 2, 8][..]), (multi_chunk, &[1, 2][..])] {
        for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
            for &threads in thread_counts {
                let make = move || {
                    Engine::new(Complete::new(n).unwrap())
                        .unwrap()
                        .with_schedule(schedule)
                        .with_stopping(StoppingCondition::consensus_within(200))
                        .with_threads(threads)
                        .with_trace(true)
                };
                sweep_kill_points(
                    &make,
                    ProtocolKind::BestOfThree,
                    &format!("complete/n{n}/{}/t{threads}", schedule.label()),
                );
            }
        }
    }
}

#[test]
fn every_kill_point_resumes_bit_identically_on_materialised_graphs() {
    let graph = GraphSpec::ErdosRenyiGnp { n: N, p: 0.3 }
        .generate(&mut StdRng::seed_from_u64(SEED))
        .expect("graph");
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        for threads in [1usize, 2, 8] {
            let graph = &graph;
            let make = move || {
                Engine::new(CsrTopology::new(graph))
                    .unwrap()
                    .with_schedule(schedule)
                    .with_stopping(StoppingCondition::consensus_within(200))
                    .with_threads(threads)
                    .with_trace(true)
            };
            sweep_kill_points(
                &make,
                ProtocolKind::BestOfThree,
                &format!("csr/{}/t{threads}", schedule.label()),
            );
        }
    }
}

#[test]
fn kill_points_survive_an_adversary_stack() {
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        let make = move || {
            Engine::new(Complete::new(N).unwrap())
                .unwrap()
                .with_schedule(schedule)
                .with_stopping(StoppingCondition::consensus_within(200))
                .with_threads(2)
                .with_trace(true)
                .with_adversary(adversary_stack(N))
        };
        sweep_kill_points(
            &make,
            ProtocolKind::BestOfThree,
            &format!("adversary/{}", schedule.label()),
        );
    }
}

#[test]
fn single_round_slices_and_json_round_trips_compose() {
    // Drive a run one round at a time; at every pause, push the checkpoint
    // through its JSON form (as the campaign runner does on disk) before
    // resuming — the serialised path must be exactly the in-memory path.
    let make = || {
        Engine::new(Complete::new(N).unwrap())
            .unwrap()
            .with_stopping(StoppingCondition::consensus_within(200))
            .with_threads(2)
            .with_trace(true)
    };
    let reference = make()
        .run_seeded_kind(ProtocolKind::BestOfThree, initial(N), SEED)
        .expect("reference");
    let budget = RunBudget::rounds_per_slice(1);
    let mut outcome = make()
        .run_seeded_kind_budgeted(ProtocolKind::BestOfThree, initial(N), SEED, &budget)
        .expect("first slice");
    let mut slices = 1;
    let result = loop {
        match outcome {
            RunOutcome::Completed(result) => break result,
            RunOutcome::Paused(checkpoint) => {
                let reparsed = RunCheckpoint::from_json_str(&checkpoint.to_json_string())
                    .expect("checkpoint JSON round-trip");
                assert_eq!(reparsed, *checkpoint);
                slices += 1;
                outcome = make().resume(&reparsed, &budget).expect("resume slice");
            }
        }
    };
    assert_eq!(result, reference);
    // The slice that runs the final round sees the stop condition in the
    // same call (stop-check precedes pause-check), so: one slice per round.
    assert_eq!(slices, reference.rounds, "one slice per round");
}

#[test]
fn cancel_flag_pauses_immediately_and_resume_completes() {
    let cancel = Arc::new(AtomicBool::new(true));
    let budget = RunBudget::unlimited().with_cancel_flag(cancel.clone());
    let make = || {
        Engine::new(Complete::new(N).unwrap())
            .unwrap()
            .with_stopping(StoppingCondition::consensus_within(200))
            .with_trace(true)
    };
    let checkpoint = make()
        .run_seeded_kind_budgeted(ProtocolKind::BestOfThree, initial(N), SEED, &budget)
        .expect("cancelled run")
        .paused()
        .expect("a pre-set cancel flag pauses before round 1");
    assert_eq!(checkpoint.round, 0);
    cancel.store(false, Ordering::SeqCst);
    let resumed = make()
        .resume(&checkpoint, &RunBudget::unlimited())
        .expect("resume")
        .completed()
        .expect("an unlimited budget completes");
    let reference = make()
        .run_seeded_kind(ProtocolKind::BestOfThree, initial(N), SEED)
        .expect("reference");
    assert_eq!(resumed, reference);
}

// --- campaign-level kill points -----------------------------------------

fn surface_campaign(name: &str) -> Campaign {
    let cell = |ratio: f64| {
        Experiment::on(TopologySpec::ImplicitSbm {
            n: 2_000,
            blocks: 2,
            p_in: 0.5 * ratio / (0.5 * (1.0 + ratio)),
            p_out: 0.5 / (0.5 * (1.0 + ratio)),
        })
        .named(format!("resume/r{ratio}"))
        .initial(InitialCondition::PrefixBlue { blue: 900 })
        .stopping(StoppingCondition::consensus_within(24))
        .replicas(2)
        .threads(2)
    };
    Campaign::new(name, SEED)
        .add_cell(cell(2.0))
        .add_cell(cell(8.0))
}

#[test]
fn a_campaign_killed_at_a_random_point_resumes_to_identical_bytes() {
    let oneshot_dir =
        std::env::temp_dir().join(format!("bo3_resume_oneshot_{}", std::process::id()));
    let killed_dir = std::env::temp_dir().join(format!("bo3_resume_killed_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&oneshot_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);

    let oneshot = CampaignRunner::new(surface_campaign("resume/sweep"), &oneshot_dir);
    assert_eq!(oneshot.run().unwrap(), CampaignOutcome::Completed);

    // Kill at an *uncontrolled* point: tiny slices plus a concurrent
    // cancellation land the interrupt wherever the race says — mid-cell,
    // between cells, or never.  Whatever happened, a fresh runner (as a
    // restarted process) must finish with byte-identical artefacts.
    let killed =
        CampaignRunner::new(surface_campaign("resume/sweep"), &killed_dir).rounds_per_slice(1);
    let cancel = killed.cancel_flag();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_millis(5));
        cancel.store(true, Ordering::SeqCst);
    });
    let first = killed.run().unwrap();
    killer.join().unwrap();
    if first == CampaignOutcome::Interrupted {
        let resumed = CampaignRunner::new(surface_campaign("resume/sweep"), &killed_dir);
        assert_eq!(resumed.run().unwrap(), CampaignOutcome::Completed);
    }

    for index in 0..2 {
        assert_eq!(
            std::fs::read_to_string(oneshot.cell_path(index)).unwrap(),
            std::fs::read_to_string(killed_dir.join(format!("cell_{index:04}.json"))).unwrap(),
            "cell {index}"
        );
    }
    let _ = std::fs::remove_dir_all(&oneshot_dir);
    let _ = std::fs::remove_dir_all(&killed_dir);
}

#[test]
fn a_campaign_interrupted_at_every_cell_boundary_resumes_identically() {
    // Deterministic counterpart of the racy test above: interrupt exactly
    // before cell 0, then exactly before cell 1 (by cancelling after the
    // manifest shows one Done), then finish.
    let reference_dir = std::env::temp_dir().join(format!("bo3_resume_ref_{}", std::process::id()));
    let stepped_dir = std::env::temp_dir().join(format!("bo3_resume_step_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&reference_dir);
    let _ = std::fs::remove_dir_all(&stepped_dir);

    let reference = CampaignRunner::new(surface_campaign("resume/steps"), &reference_dir);
    assert_eq!(reference.run().unwrap(), CampaignOutcome::Completed);

    // Boundary 0: cancelled before anything ran.
    let runner = CampaignRunner::new(surface_campaign("resume/steps"), &stepped_dir);
    runner.cancel_flag().store(true, Ordering::SeqCst);
    assert_eq!(runner.run().unwrap(), CampaignOutcome::Interrupted);
    assert!(!stepped_dir.join("cell_0000.json").exists());

    // Run again without cancelling: completes both cells.  (Cell-boundary
    // pauses inside a running campaign are exercised by the racy test; the
    // invariant here is that restarts from each boundary state converge.)
    let runner = CampaignRunner::new(surface_campaign("resume/steps"), &stepped_dir);
    assert_eq!(runner.run().unwrap(), CampaignOutcome::Completed);

    for index in 0..2 {
        assert_eq!(
            std::fs::read_to_string(reference.cell_path(index)).unwrap(),
            std::fs::read_to_string(stepped_dir.join(format!("cell_{index:04}.json"))).unwrap(),
            "cell {index}"
        );
    }
    let _ = std::fs::remove_dir_all(&reference_dir);
    let _ = std::fs::remove_dir_all(&stepped_dir);
}

// --- randomized round-trips ---------------------------------------------

fn arb_status() -> impl Strategy<Value = CellStatus> {
    prop_oneof![
        Just(CellStatus::Pending),
        Just(CellStatus::Done),
        (0u32..10).prop_map(|attempts| CellStatus::InFlight { attempts }),
        (0u32..1000).prop_map(|i| CellStatus::Skipped {
            reason: format!("cell error {i}")
        }),
    ]
}

fn arb_checkpoint() -> impl Strategy<Value = RunCheckpoint> {
    (
        1usize..200,
        any::<u64>(),
        0usize..50,
        proptest::collection::vec(any::<u64>(), 0..4),
        0.0f64..1.0,
        any::<u64>(),
        any::<bool>(),
    )
        .prop_map(|(n, seed, round, extra, blue0, dropped, sync)| {
            let words = n.div_ceil(64);
            let mut opinion_words: Vec<u64> = extra.into_iter().cycle().take(words).collect();
            opinion_words.resize(words, 0);
            if n % 64 != 0 {
                if let Some(last) = opinion_words.last_mut() {
                    *last &= (1u64 << (n % 64)) - 1;
                }
            }
            RunCheckpoint {
                version: RUN_CHECKPOINT_VERSION,
                protocol: ProtocolKind::BestOfThree,
                schedule: if sync {
                    Schedule::Synchronous
                } else {
                    Schedule::AsynchronousRandomOrder
                },
                stopping: StoppingCondition::consensus_within(1 + round * 2),
                master_seed: seed,
                round,
                n,
                opinion_words,
                initial_blue_fraction: blue0,
                dropped_samples: dropped,
                trace: None,
            }
        })
}

proptest! {
    #[test]
    fn manifest_json_round_trips(
        statuses in proptest::collection::vec(arb_status(), 0..12),
        metas in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u64>()),
            0..12,
        ),
        seed in any::<u64>(),
        name_tag in 0u32..1000,
    ) {
        // The meta array must stay aligned with the statuses array.
        let cells: Vec<CellMeta> = statuses
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let (attempts, resumes, wall_ms) =
                    metas.get(i).copied().unwrap_or((0, 0, 0));
                CellMeta { attempts, resumes, wall_ms }
            })
            .collect();
        let manifest = CampaignManifest {
            version: CAMPAIGN_MANIFEST_VERSION,
            name: format!("campaign/{name_tag}"),
            campaign_seed: seed,
            statuses,
            cells,
        };
        let reparsed = CampaignManifest::from_json_str(&manifest.to_json_string()).unwrap();
        prop_assert_eq!(reparsed, manifest);
    }

    #[test]
    fn checkpoint_json_round_trips(checkpoint in arb_checkpoint()) {
        let reparsed = RunCheckpoint::from_json_str(&checkpoint.to_json_string()).unwrap();
        prop_assert_eq!(&reparsed, &checkpoint);
        // And through a batch wrapper, as written to disk by the runner.
        let batch = bo3_dynamics::montecarlo::BatchCheckpoint {
            version: bo3_dynamics::montecarlo::BATCH_CHECKPOINT_VERSION,
            completed: vec![],
            current: Some(checkpoint),
        };
        let reparsed = bo3_dynamics::montecarlo::BatchCheckpoint::from_json_str(
            &batch.to_json_string(),
        )
        .unwrap();
        prop_assert_eq!(reparsed, batch);
    }

    #[test]
    fn packed_opinions_round_trip(bits in proptest::collection::vec(any::<bool>(), 1..300)) {
        let opinions: Vec<Opinion> = bits
            .iter()
            .map(|&b| if b { Opinion::Blue } else { Opinion::Red })
            .collect();
        let unpacked = unpack_opinions(&pack_opinions(&opinions), opinions.len()).unwrap();
        prop_assert_eq!(unpacked, opinions);
    }
}
