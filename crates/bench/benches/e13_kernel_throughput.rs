//! E13: monomorphized-kernel vs `dyn`-dispatch throughput.
//!
//! Times one seeded synchronous Best-of-Three round on the complete graph
//! `K_{10000}` through both dispatch paths — the plain protocol (kernel
//! path: bit-packed snapshot, batched Lemire RNG, static dispatch) and a
//! [`DynOnly`]-wrapped copy (generic `dyn Protocol` / `dyn RngCore` path) —
//! plus the remaining built-in protocols on the kernel path for context.
//!
//! Besides the criterion group, the target writes `BENCH_kernels.json` at
//! the workspace root: an updates/sec snapshot of both paths so the perf
//! trajectory is tracked across PRs.
//!
//! It also guards the phase-split gather, the route specialised to
//! materialised CSR arrays for pure sampling rules, against the plain
//! sampler over the same graph behind a `ScalarSampled` wrapper, on both
//! schedules.  On a materialised `G(10⁴, 0.05)` it interleaves one
//! Best-of-3 round through each engine — a seeded synchronous round, or a
//! `step_asynchronous_with` round on a caller RNG seeded alike for both —
//! asserts every pair produced the same opinions, and writes the
//! order-balanced median wall ratio (see `csr_over_opaque`) as
//! `csr_over_opaque_bo3` and `csr_over_opaque_bo3_async`.  It panics if
//! either is below [`CSR_FLOOR_BO3`].
//!
//! Set `E13_QUICK=1` (the CI bench-smoke job does) to shrink the
//! measurement to about a second.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_core::prelude::*;
use bo3_graph::ScalarSampled;

const N: usize = 10_000;
const SEED: u64 = 0xE13;

/// Edge probability of the materialised graph the CSR floors run on.
const CSR_P: f64 = 0.05;

/// The lowest speed ratio of the Best-of-3 gather over the opaque sampler,
/// on either schedule.  The ratio depends on the cache hierarchy: on a
/// 2-vCPU Intel Xeon VM the synchronous one read 1.23–1.26 and the
/// asynchronous one 1.39–1.45 over `u32` CSR rows (1.29–1.69 and 1.75 over
/// `usize` rows), and 0.99–1.02 with the gather switched off.
const CSR_FLOOR_BO3: f64 = 1.15;

fn quick_mode() -> bool {
    std::env::var_os("E13_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

fn scenario() -> (CsrGraph, Configuration) {
    let graph = bo3_graph::generators::complete(N);
    let mut rng = StdRng::seed_from_u64(SEED);
    let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample(&graph, &mut rng)
        .expect("init");
    (graph, init)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_kernel_throughput");
    group.sample_size(if quick_mode() { 3 } else { 20 });
    if quick_mode() {
        group.measurement_time(Duration::from_millis(300));
    }
    let (graph, init) = scenario();
    let sim = Engine::on_graph(&graph).expect("engine");

    // The headline pair: Best-of-Three through each dispatch path.
    group.bench_with_input(BenchmarkId::new("one_round", "bo3-kernel"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| sim.step_seeded(&BestOfThree::new(), &init, &mut scratch, SEED, 0));
    });
    group.bench_with_input(BenchmarkId::new("one_round", "bo3-dyn"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| sim.step_seeded(&DynOnly(BestOfThree::new()), &init, &mut scratch, SEED, 0));
    });

    // The remaining built-ins on the kernel path, for cross-protocol context.
    for (label, spec) in comparison_protocols() {
        group.bench_with_input(BenchmarkId::new("kernel_round", label), &spec, |b, spec| {
            let protocol = spec.build();
            let mut scratch = Vec::new();
            b.iter(|| sim.step_seeded(protocol.as_ref(), &init, &mut scratch, SEED, 0));
        });
    }
    group.finish();
}

/// Measures whole-rounds-per-second of `step_seeded` for `protocol` and
/// returns vertex updates per second.
fn updates_per_sec(
    sim: &Engine<CsrTopology<'_>>,
    init: &Configuration,
    protocol: &dyn Protocol,
) -> f64 {
    let mut scratch = Vec::new();
    // Warm-up round (page in the graph, size the buffers).
    sim.step_seeded(protocol, init, &mut scratch, SEED, 0);
    let budget = if quick_mode() {
        Duration::from_millis(200)
    } else {
        Duration::from_secs(3)
    };
    let mut rounds = 0u64;
    let start = Instant::now();
    loop {
        sim.step_seeded(protocol, init, &mut scratch, SEED, rounds);
        rounds += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    (rounds as u128 * N as u128) as f64 / start.elapsed().as_secs_f64()
}

/// Wall seconds of one Best-of-3 round from `init` through `engine` on
/// `schedule`, whose opinions land in `out`: seeded round `round` when
/// synchronous, a `step_asynchronous_with` round on a caller RNG seeded with
/// `round` (reusing `scratch`) when asynchronous.
fn round_wall<T: Topology>(
    engine: &Engine<T>,
    schedule: Schedule,
    init: &Configuration,
    (out, scratch): &mut (Vec<Opinion>, AsyncScratch),
    round: u64,
) -> f64 {
    match schedule {
        Schedule::Synchronous => {
            let start = Instant::now();
            engine.step_seeded_kind(ProtocolKind::BestOfThree, init, out, SEED, round);
            start.elapsed().as_secs_f64()
        }
        Schedule::AsynchronousRandomOrder => {
            let mut config = init.clone();
            let mut rng = StdRng::seed_from_u64(round);
            let start = Instant::now();
            engine.step_asynchronous_with(&BestOfThree::new(), &mut config, scratch, &mut rng);
            let wall = start.elapsed().as_secs_f64();
            out.clear();
            out.extend_from_slice(config.as_slice());
            wall
        }
    }
}

/// The CSR gather's speed over the opaque sampler's for Best-of-3 on
/// `schedule` on `graph`: one round through each engine per pair, both
/// from the same seed, the pairs interleaved, every pair's outputs
/// asserted identical.
///
/// Both sides of a pair run the *same* round, so whichever runs second
/// finds the round's neighbour reads already cached: a single pair's ratio
/// swings by about 2× with the order, and a median of raw pair ratios
/// lands on either side of that gap.  So the order alternates pair by
/// pair, and each CSR-first pair is combined with the opaque-first pair
/// after it (the geometric mean of their opaque-over-CSR wall ratios),
/// which cancels the order; the result is the median of those.
fn csr_over_opaque(graph: &CsrGraph, init: &Configuration, schedule: Schedule) -> f64 {
    let csr = Engine::on_graph(graph).expect("engine");
    let opaque = Engine::new(ScalarSampled(CsrTopology::new(graph))).expect("engine");
    let mut fast = (Vec::new(), AsyncScratch::new());
    let mut slow = (Vec::new(), AsyncScratch::new());
    // One untimed warm-up pair.
    round_wall(&csr, schedule, init, &mut fast, 0);
    round_wall(&opaque, schedule, init, &mut slow, 0);
    let pairs: u64 = if quick_mode() { 128 } else { 512 };
    let ratios: Vec<f64> = (0..pairs)
        .map(|round| {
            let (csr_wall, opaque_wall) = if round % 2 == 0 {
                let csr_wall = round_wall(&csr, schedule, init, &mut fast, round);
                (
                    csr_wall,
                    round_wall(&opaque, schedule, init, &mut slow, round),
                )
            } else {
                let opaque_wall = round_wall(&opaque, schedule, init, &mut slow, round);
                (
                    round_wall(&csr, schedule, init, &mut fast, round),
                    opaque_wall,
                )
            };
            assert_eq!(
                fast.0, slow.0,
                "{schedule:?}: the CSR gather changed round {round}"
            );
            opaque_wall / csr_wall.max(1e-12)
        })
        .collect();
    let mut balanced: Vec<f64> = ratios
        .chunks_exact(2)
        .map(|p| (p[0] * p[1]).sqrt())
        .collect();
    balanced.sort_by(f64::total_cmp);
    balanced[balanced.len() / 2]
}

/// Writes the updates/sec snapshot consumed by the perf-trajectory tracking.
fn write_snapshot() {
    let (graph, init) = scenario();
    let sim = Engine::on_graph(&graph).expect("engine");
    let kernel = updates_per_sec(&sim, &init, &BestOfThree::new());
    let dynamic = updates_per_sec(&sim, &init, &DynOnly(BestOfThree::new()));
    let speedup = kernel / dynamic;
    let gnp = bo3_graph::generators::erdos_renyi_gnp(N, CSR_P, &mut StdRng::seed_from_u64(SEED))
        .expect("gnp");
    let gnp_init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample(&gnp, &mut StdRng::seed_from_u64(SEED))
        .expect("init");
    let bo3 = csr_over_opaque(&gnp, &gnp_init, Schedule::Synchronous);
    let bo3_async = csr_over_opaque(&gnp, &gnp_init, Schedule::AsynchronousRandomOrder);
    let json = format!(
        "{{\n  \"experiment\": \"e13_kernel_throughput\",\n  \"protocol\": \"best-of-3\",\n  \
         \"graph\": \"complete\",\n  \"n\": {N},\n  \"quick_mode\": {quick},\n  \
         \"dyn_updates_per_sec\": {dynamic:.0},\n  \"kernel_updates_per_sec\": {kernel:.0},\n  \
         \"kernel_speedup\": {speedup:.2},\n  \"csr_graph\": \"gnp(n={N},p={CSR_P})\",\n  \
         \"csr_floor_bo3\": {CSR_FLOOR_BO3},\n  \"csr_over_opaque_bo3\": {bo3:.2},\n  \
         \"csr_over_opaque_bo3_async\": {bo3_async:.2}\n}}\n",
        quick = quick_mode(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("snapshot ({path}):\n{json}");

    // Observed replay: the same seeded round with a MetricsObserver
    // installed must be bit-identical to the plain run — the observer
    // reads the simulation, never the other way round — and its registry
    // snapshot lands next to the BENCH file.
    let observed = Engine::on_graph(&graph)
        .expect("engine")
        .with_observer(MetricsObserver::new());
    let (mut plain, mut watched) = (Vec::new(), Vec::new());
    sim.step_seeded(&BestOfThree::new(), &init, &mut plain, SEED, 0);
    observed.step_seeded(&BestOfThree::new(), &init, &mut watched, SEED, 0);
    assert_eq!(plain, watched, "observer must not perturb the round");
    bo3_bench::obsprobe::write_metrics_snapshot(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS_kernels.json"),
        "e13_kernel_throughput",
        &observed.observer().registry().snapshot_json(),
    );
    for (schedule, ratio) in [("synchronous", bo3), ("asynchronous", bo3_async)] {
        assert!(
            ratio >= CSR_FLOOR_BO3,
            "best-of-3, {schedule}: the CSR gather runs at {ratio:.2}x the opaque sampler, \
             below the {CSR_FLOOR_BO3} floor"
        );
    }
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_snapshot();
}
