//! E16: asynchronous vs synchronous schedule on implicit topologies.
//!
//! The unified engine lifted the asynchronous (random sequential) schedule
//! onto `Topology`, so the ablation now runs adjacency-free.  This target
//! times one seeded round of each schedule on implicit `G(n, 1/2)` and then
//! writes `BENCH_async.json` at the workspace root: full Best-of-Three
//! consensus runs at `n = 10⁶` under both schedules — the async one
//! completing without materialising an edge is the acceptance criterion of
//! the engine unification — recording rounds and sustained updates/s so the
//! async/sync throughput ratio is tracked across changes.  The document goes
//! through [`bo3_bench::ledger`].  Set `BO3_QUICK=1` (the CI bench-smoke
//! job does) to shrink the criterion measurement to an E14-style small-n
//! slice; the snapshot's million-vertex runs execute in both modes.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_bench::e20_sampler::MIN_IMPLICIT_OVER_COMPLETE;
use bo3_bench::ledger::Ledger;
use bo3_bench::quick;
use bo3_core::prelude::*;
use bo3_graph::ImplicitGnp;

const SEED: u64 = 0xE16;
const SNAPSHOT_N: usize = 1_000_000;
const P: f64 = 0.5;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_async_schedule");
    group.sample_size(if quick() { 3 } else { 10 });
    if quick() {
        group.measurement_time(Duration::from_millis(500));
    }
    let n = if quick() { 100_000 } else { 1_000_000 };
    let topo = ImplicitGnp::new(n, P, SEED).expect("gnp");
    let mut rng = StdRng::seed_from_u64(SEED);
    let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample_n(n, &mut rng)
        .expect("init");
    let sync_engine = Engine::new(topo).expect("engine");
    group.bench_with_input(BenchmarkId::new("one_round", "sync"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| {
            sync_engine.step_seeded(&ProtocolSpec::BestOfThree, &init, &mut scratch, SEED, 0)
        });
    });
    let async_engine = Engine::new(topo)
        .expect("engine")
        .with_schedule(Schedule::AsynchronousRandomOrder)
        .with_stopping(StoppingCondition::fixed_rounds(1));
    group.bench_with_input(BenchmarkId::new("one_round", "async"), &(), |b, ()| {
        b.iter(|| {
            async_engine
                .run_seeded(&ProtocolSpec::BestOfThree, init.clone(), SEED)
                .expect("async round")
        });
    });
    group.finish();
}

/// One timed consensus run under `schedule`, end to end through the
/// Scenario API (topology build + init sampling + rounds), as everywhere
/// else in the perf snapshots.
fn consensus(spec: TopologySpec, schedule: Schedule) -> (usize, bool, f64) {
    let experiment = Experiment::on(spec)
        .named(format!("E16/{}", schedule.label()))
        .protocol(ProtocolSpec::BestOfThree)
        .initial(InitialCondition::BernoulliWithBias { delta: 0.15 })
        .schedule(schedule)
        .stopping(StoppingCondition::consensus_within(10_000))
        .replicas(1)
        .seed(SEED)
        .threads(0);
    let start = Instant::now();
    let result = experiment.run().expect("consensus run");
    let wall = start.elapsed().as_secs_f64();
    let outcome = result.report.outcomes[0];
    let updates_per_sec = if wall > 0.0 {
        (outcome.rounds as u128 * SNAPSHOT_N as u128) as f64 / wall
    } else {
        0.0
    };
    (
        outcome.rounds,
        outcome.winner == Some(Opinion::Red),
        updates_per_sec,
    )
}

/// Writes the async-vs-sync snapshot consumed by the perf-trajectory
/// tracking, asserting the acceptance criterion on the way: seeded
/// asynchronous Best-of-Three on implicit `G(10⁶, 1/2)` reaches red
/// consensus without materialising adjacency.
fn write_snapshot() {
    let gnp = TopologySpec::ImplicitGnp {
        n: SNAPSHOT_N,
        p: P,
    };
    let (sync_rounds, sync_red, sync_ups) = consensus(gnp.clone(), Schedule::Synchronous);
    let (async_rounds, async_red, async_ups) = consensus(gnp, Schedule::AsynchronousRandomOrder);
    assert!(
        sync_red && async_red,
        "million-vertex implicit G(n, 1/2) must reach red consensus under both schedules"
    );
    let ratio = async_ups / sync_ups;
    // The complete-graph async reference at the same n, for the batched-
    // sampler ratio the e20 regression bench gates on.
    let (_, complete_red, complete_async_ups) = consensus(
        TopologySpec::Complete { n: SNAPSHOT_N },
        Schedule::AsynchronousRandomOrder,
    );
    assert!(
        complete_red,
        "complete-graph async run must reach red consensus"
    );
    let implicit_over_complete = if complete_async_ups > 0.0 {
        async_ups / complete_async_ups
    } else {
        0.0
    };
    // One metered probe pins the G(n, 1/2) rejection sampler's try rate —
    // the schedule doesn't change the sampler, so one figure covers both.
    let probe = bo3_bench::obsprobe::probe_spec(
        &TopologySpec::ImplicitGnp {
            n: SNAPSHOT_N,
            p: P,
        },
        SEED,
        1,
    );
    // The batched-sampler floor (shared with e20): the async schedule's
    // round-scoped lane must keep the implicit topology within the
    // committed ratio of the complete-graph kernel.
    Ledger::new("e16_async_schedule", quick())
        .metric("n", SNAPSHOT_N as f64)
        .metric("p", P)
        .metric("sync_rounds", sync_rounds as f64)
        .metric("async_rounds", async_rounds as f64)
        .metric("sync_updates_per_sec", sync_ups)
        .metric("async_updates_per_sec", async_ups)
        .metric("async_over_sync", ratio)
        .metric("complete_async_updates_per_sec", complete_async_ups)
        .metric("sampler_tries_per_draw", probe.tries_per_draw())
        .floor(
            "implicit_over_complete_async",
            implicit_over_complete,
            MIN_IMPLICIT_OVER_COMPLETE,
        )
        .observer(&probe.snapshot_json)
        .write("BENCH_async.json");
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_snapshot();
}
