//! Batched-lane vs strict-scalar sampling equivalence.
//!
//! The draw-ahead lane (`bo3_graph::lane`) re-routes every seeded engine
//! path on the hash-defined topologies, promising **bit-identical**
//! dynamics to the scalar rejection sampler it replaced: same accepted
//! neighbours, same per-draw try counts, same RNG stream order.  This
//! suite pins that promise end to end through the public engine API by
//! running every configuration twice — once normally (lane path) and once
//! with the topology wrapped in [`ScalarSampled`], which hides the
//! pair-hash spec and forces the pre-lane scalar sampler — and requiring
//! identical [`RunResult`]s (stop reason, winner, rounds, full trace):
//!
//! * across edge densities `p ∈ {0.05, 0.3, 0.5, 0.9}` (the rejection
//!   rate, and with it the lane's accept-mask shape, varies by ~20x);
//! * on both hash-defined families (`G(n, p)` and the planted-partition
//!   SBM, whose two-threshold accept test exercises the block logic);
//! * under both schedules (chunk-scoped sync streams, round-scoped async
//!   streams) and at 1, 2 and 8 threads on a multi-chunk instance;
//! * for every lane-eligible protocol (fixed draw counts, no tie coin)
//!   and randomised `(p, seed, n)` triples under proptest;
//! * with identical sampler meter totals (tries and accepts) on the
//!   metered observer path, so batching never changes what metering sees.

#![recursion_limit = "256"]

use bo3_core::prelude::*;
use bo3_graph::ScalarSampled;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const MASTER_SEED: u64 = 0x1A9E;

fn biased_init(n: usize, seed: u64) -> Configuration {
    let mut rng = StdRng::seed_from_u64(seed);
    InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample_n(n, &mut rng)
        .expect("initial condition")
}

/// Runs `kind` seeded on `topo` under `schedule` at `threads`, tracing
/// every round so the assertion compares whole trajectories.
fn run_engine<T: Topology>(
    topo: T,
    kind: ProtocolKind,
    schedule: Schedule,
    threads: usize,
    rounds: usize,
    init: Configuration,
) -> RunResult {
    Engine::new(topo)
        .expect("engine")
        .with_schedule(schedule)
        .with_stopping(StoppingCondition::fixed_rounds(rounds))
        .with_threads(threads)
        .with_trace(true)
        .run_seeded_kind(kind, init, MASTER_SEED)
        .expect("seeded run")
}

/// Asserts lane == scalar on one topology across both schedules.
fn assert_lane_matches_scalar<T: Topology + Clone>(
    topo: T,
    kind: ProtocolKind,
    threads: usize,
    rounds: usize,
    label: &str,
) {
    let init = biased_init(topo.n(), 7);
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        let lane = run_engine(topo.clone(), kind, schedule, threads, rounds, init.clone());
        let scalar = run_engine(
            ScalarSampled(topo.clone()),
            kind,
            schedule,
            threads,
            rounds,
            init.clone(),
        );
        assert_eq!(
            lane,
            scalar,
            "{label}: lane diverged from scalar sampling under {} at {threads} threads",
            schedule.label()
        );
    }
}

#[test]
fn lane_matches_scalar_on_gnp_across_densities() {
    for &p in &[0.05, 0.3, 0.5, 0.9] {
        let topo = ImplicitGnp::new(600, p, 0xA1).expect("gnp");
        assert_lane_matches_scalar(topo, ProtocolKind::BestOfThree, 1, 6, &format!("gnp p={p}"));
    }
}

#[test]
fn lane_matches_scalar_on_sbm_across_densities() {
    for &(p_in, p_out) in &[(0.7, 0.05), (0.3, 0.3), (0.9, 0.5), (0.05, 0.9)] {
        let topo = ImplicitSbm::new(600, 3, p_in, p_out, 0xB2).expect("sbm");
        assert_lane_matches_scalar(
            topo,
            ProtocolKind::BestOfThree,
            1,
            6,
            &format!("sbm p_in={p_in} p_out={p_out}"),
        );
    }
}

#[test]
fn lane_matches_scalar_across_thread_counts_on_a_multi_chunk_instance() {
    // n = 9_000 spans multiple 4096-vertex chunks, so the sync schedule
    // exercises per-(seed, round, chunk) lane scoping and the thread sweep
    // exercises chunk-boundary tail discards at every split.
    let topo = ImplicitGnp::new(9_000, 0.5, 0xC3).expect("gnp");
    for threads in [1usize, 2, 8] {
        assert_lane_matches_scalar(
            topo,
            ProtocolKind::BestOfThree,
            threads,
            3,
            "multi-chunk gnp",
        );
    }
}

#[test]
fn lane_matches_scalar_for_every_lane_eligible_protocol() {
    let topo = ImplicitGnp::new(500, 0.4, 0xD4).expect("gnp");
    for kind in [
        ProtocolKind::Voter,
        ProtocolKind::BestOfTwo(TieRule::KeepOwn),
        ProtocolKind::BestOfThree,
        ProtocolKind::BestOfK {
            k: 5,
            tie_rule: TieRule::Random,
        },
        ProtocolKind::BestOfK {
            k: 4,
            tie_rule: TieRule::KeepOwn,
        },
        // Coin protocols are NOT lane-eligible; they must stay equivalent
        // trivially (both sides take the scalar path).
        ProtocolKind::BestOfTwo(TieRule::Random),
    ] {
        assert_lane_matches_scalar(topo, kind, 1, 5, &format!("{kind:?}"));
    }
}

#[test]
fn metered_try_and_accept_totals_are_identical_under_batching() {
    // The lane reports its own counters once per chunk where the scalar
    // path counts the draws it takes from the chunk's stream — different
    // plumbing, but the totals the observer reports must be the same
    // numbers.
    struct MeterTotals {
        tries: u64,
        accepts: u64,
        lane_occupancy: Option<f64>,
    }
    fn run_metered<T: Topology>(topo: T, init: Configuration) -> MeterTotals {
        let engine = Engine::new(topo)
            .expect("engine")
            .with_observer(MetricsObserver::new())
            .with_schedule(Schedule::Synchronous)
            .with_stopping(StoppingCondition::fixed_rounds(4));
        engine
            .run_seeded_kind(ProtocolKind::BestOfThree, init, MASTER_SEED)
            .expect("metered run");
        let meter = engine.observer().meter();
        MeterTotals {
            tries: meter.tries(),
            accepts: meter.accepts(),
            lane_occupancy: meter.lane_occupancy(),
        }
    }
    let topo = ImplicitGnp::new(700, 0.5, 0xE5).expect("gnp");
    let init = biased_init(700, 7);
    let lane = run_metered(topo, init.clone());
    let scalar = run_metered(ScalarSampled(topo), init);
    assert_eq!(lane.tries, scalar.tries, "try totals diverged");
    assert_eq!(lane.accepts, scalar.accepts, "accept totals diverged");
    assert!(lane.tries > lane.accepts, "p = 1/2 must reject sometimes");
    assert!(
        lane.lane_occupancy.is_some(),
        "the unwrapped engine must have taken the lane"
    );
    assert!(
        scalar.lane_occupancy.is_none(),
        "the ScalarSampled engine must never take the lane"
    );
}

/// Randomised densities, graph seeds and sizes: the lane must agree with
/// the scalar sampler on both schedules for any dense-regime instance,
/// not just the hand-picked grid.  (Plain function so the `proptest!`
/// macro body stays tiny — its recursive expansion chokes on large
/// bodies.)
fn check_random_instance(p: f64, graph_seed: u64, n: usize) {
    let topo = ImplicitGnp::new(n, p, graph_seed).expect("gnp");
    let init = biased_init(n, graph_seed ^ 0x5A);
    for schedule in [Schedule::Synchronous, Schedule::AsynchronousRandomOrder] {
        let lane = run_engine(
            topo,
            ProtocolKind::BestOfThree,
            schedule,
            1,
            4,
            init.clone(),
        );
        let scalar = run_engine(
            ScalarSampled(topo),
            ProtocolKind::BestOfThree,
            schedule,
            1,
            4,
            init.clone(),
        );
        assert_eq!(lane, scalar, "p={p} seed={graph_seed} n={n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lane_matches_scalar_on_random_instances(
        p in 0.05f64..0.95,
        graph_seed in 0u64..1_000,
        n in 64usize..400,
    ) {
        check_random_instance(p, graph_seed, n);
    }
}
