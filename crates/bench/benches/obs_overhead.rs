//! Observer-overhead bench: a recording observer must cost next to nothing.
//!
//! `Engine<T>` defaults its observer parameter to `NoopObserver`, whose
//! `enabled()` returns `false` as an `#[inline(always)]` constant — every
//! timing guard and hook folds away at monomorphization, so the default
//! engine *is* the pre-observability baseline.  A [`MetricsObserver`] runs
//! the same kernels and adds each work unit's sampler totals to its meter
//! once per unit, so it costs a few relaxed atomic adds per chunk.  This
//! target pins that on implicit `K_n`, whose kernel spends a handful of
//! nanoseconds per draw, so any per-draw cost would show there first, and
//! on implicit `G(n, 1/2)`, which takes the draw-ahead lane:
//!
//! * the criterion group times one seeded round through the default
//!   (Noop) engine and through the same engine with a [`MetricsObserver`]
//!   installed, on both topologies;
//! * `main` alternates Noop and metered rounds (Noop first on even rounds,
//!   metered first on odd ones), asserts every pair produced bit-identical
//!   opinion buffers, and takes the median over rounds of the Noop wall
//!   over the metered wall.  It writes both ratios to
//!   `BENCH_obs_overhead.json` and the `G(n, 1/2)` registry to
//!   `METRICS_obs_overhead.json`, then panics if either ratio is below
//!   [`FLOOR`].
//!
//! Set `OBS_QUICK=1` (the CI bench-smoke job does) to shrink the
//! measurement to about a second.

use std::time::{Duration, Instant};

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_core::prelude::*;
use bo3_graph::ImplicitGnp;

const N: usize = 100_000;
const P: f64 = 0.5;
const SEED: u64 = 0x0B5;

/// The lowest metered-over-Noop round-time ratio either topology may read.
const FLOOR: f64 = 0.9;

fn quick_mode() -> bool {
    std::env::var_os("OBS_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

fn init() -> Configuration {
    let mut rng = StdRng::seed_from_u64(SEED);
    InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample_n(N, &mut rng)
        .expect("init")
}

fn complete() -> Complete {
    Complete::new(N).expect("complete")
}

fn gnp() -> ImplicitGnp {
    ImplicitGnp::new(N, P, SEED).expect("gnp")
}

fn bench_topology<T: Topology + Copy>(c: &mut Criterion, label: &str, topo: T) {
    let mut group = c.benchmark_group(format!("obs_overhead/{label}"));
    group.sample_size(if quick_mode() { 3 } else { 20 });
    if quick_mode() {
        group.measurement_time(Duration::from_millis(300));
    }
    let init = init();
    let noop = Engine::new(topo).expect("engine");
    let metrics = Engine::new(topo)
        .expect("engine")
        .with_observer(MetricsObserver::new());
    group.bench_with_input(BenchmarkId::new("one_round", "noop"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| noop.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut scratch, SEED, 0));
    });
    group.bench_with_input(BenchmarkId::new("one_round", "metrics"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| {
            metrics.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut scratch, SEED, 0)
        });
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    bench_topology(c, "implicit_complete", complete());
    bench_topology(c, "implicit_gnp", gnp());
}

/// Wall seconds of seeded round `round` from `init` through `engine`.
fn round_wall<T: Topology, O: Observer>(
    engine: &Engine<T, O>,
    init: &Configuration,
    next: &mut Vec<Opinion>,
    round: u64,
) -> f64 {
    let start = Instant::now();
    engine.step_seeded_kind(ProtocolKind::BestOfThree, init, next, SEED, round);
    start.elapsed().as_secs_f64()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// One topology's twin measurement, rendered as a JSON row.
struct Twin {
    row: String,
    ratio: f64,
}

/// Alternates Noop and metered rounds on `topo`, checking each pair is
/// bit-identical, and returns the row plus the metered engine.
fn twin<T: Topology + Copy>(label: &str, topo: T) -> (Twin, Engine<T, MetricsObserver>) {
    let init = init();
    let noop = Engine::new(topo).expect("engine");
    let metrics = Engine::new(topo)
        .expect("engine")
        .with_observer(MetricsObserver::new());
    let rounds: u64 = if quick_mode() { 40 } else { 400 };
    let (mut plain, mut watched) = (Vec::new(), Vec::new());
    // One untimed warm-up pair.
    round_wall(&noop, &init, &mut plain, rounds);
    round_wall(&metrics, &init, &mut watched, rounds);
    let (mut noop_ms, mut metrics_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        let (noop_wall, metrics_wall) = if round % 2 == 0 {
            let noop_wall = round_wall(&noop, &init, &mut plain, round);
            (noop_wall, round_wall(&metrics, &init, &mut watched, round))
        } else {
            let metrics_wall = round_wall(&metrics, &init, &mut watched, round);
            (round_wall(&noop, &init, &mut plain, round), metrics_wall)
        };
        assert_eq!(plain, watched, "{label}: observer perturbed round {round}");
        noop_ms.push(noop_wall * 1e3);
        metrics_ms.push(metrics_wall * 1e3);
        ratios.push(noop_wall / metrics_wall.max(1e-12));
    }
    let meter = metrics.observer().meter();
    assert!(
        meter.accepts() > 0,
        "{label}: the metered engine recorded nothing"
    );
    let ratio = median(&mut ratios);
    let row = format!(
        "{{\"topology\": \"{label}\", \"rounds\": {rounds}, \
         \"noop_round_ms_p50\": {:.3}, \"metrics_round_ms_p50\": {:.3}, \
         \"tries_per_draw\": {:.3}, \"metrics_over_noop\": {ratio:.3}}}",
        median(&mut noop_ms),
        median(&mut metrics_ms),
        meter.tries_per_draw().unwrap_or(0.0),
    );
    (Twin { row, ratio }, metrics)
}

fn write_snapshot() {
    let (complete, _) = twin("implicit_complete", complete());
    let (gnp, gnp_engine) = twin("implicit_gnp", gnp());
    let json = format!(
        "{{\n  \"experiment\": \"obs_overhead\",\n  \"protocol\": \"best-of-3\",\n  \
         \"n\": {N},\n  \"gnp_p\": {P},\n  \"quick_mode\": {quick},\n  \
         \"floor\": {FLOOR},\n  \"rows\": [\n    {},\n    {}\n  ]\n}}\n",
        complete.row,
        gnp.row,
        quick = quick_mode(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_obs_overhead.json");
    std::fs::write(path, &json).expect("write BENCH_obs_overhead.json");
    println!("snapshot ({path}):\n{json}");
    bo3_bench::obsprobe::write_metrics_snapshot(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../METRICS_obs_overhead.json"
        ),
        "obs_overhead",
        &gnp_engine.observer().registry().snapshot_json(),
    );
    for (label, twin) in [("implicit_complete", &complete), ("implicit_gnp", &gnp)] {
        assert!(
            twin.ratio >= FLOOR,
            "{label}: metered rounds run at {:.3} of Noop speed, below the {FLOOR} floor",
            twin.ratio
        );
    }
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_snapshot();
}
