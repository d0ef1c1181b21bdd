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
//! * `main` times metered against Noop rounds with [`interleaved_ratio`],
//!   which asserts every pair produced bit-identical opinion buffers and
//!   balances the order of each pair.  It writes both ratios, with the
//!   `G(n, 1/2)` registry as the observer, to `BENCH_obs_overhead.json`,
//!   then panics if either ratio is below [`FLOOR`].
//!
//! Set `BO3_QUICK=1` (the CI bench-smoke job does) to shrink the
//! measurement to about a second.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_bench::ledger::{interleaved_ratio, num, seeded_round, Ledger};
use bo3_bench::quick;
use bo3_core::prelude::*;
use bo3_graph::ImplicitGnp;

const N: usize = 100_000;
const P: f64 = 0.5;
const SEED: u64 = 0x0B5;

/// The lowest metered-over-Noop round-time ratio either topology may read.
const FLOOR: f64 = 0.9;

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
    group.sample_size(if quick() { 3 } else { 20 });
    if quick() {
        group.measurement_time(Duration::from_millis(300));
    }
    let init = init();
    let noop = Engine::new(topo).expect("engine");
    let metrics = Engine::new(topo)
        .expect("engine")
        .with_observer(MetricsObserver::new());
    group.bench_with_input(BenchmarkId::new("one_round", "noop"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| noop.step_seeded(&ProtocolSpec::BestOfThree, &init, &mut scratch, SEED, 0));
    });
    group.bench_with_input(BenchmarkId::new("one_round", "metrics"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| metrics.step_seeded(&ProtocolSpec::BestOfThree, &init, &mut scratch, SEED, 0));
    });
    group.finish();
}

fn bench(c: &mut Criterion) {
    bench_topology(c, "implicit_complete", complete());
    bench_topology(c, "implicit_gnp", gnp());
}

/// Times metered against Noop rounds on `topo` into `ledger`'s row and
/// floor `label`, and returns the metered engine.
fn twin<T: Topology + Copy>(
    ledger: &mut Ledger,
    label: &str,
    topo: T,
) -> Engine<T, MetricsObserver> {
    let init = init();
    let noop = Engine::new(topo).expect("engine");
    let metrics = Engine::new(topo)
        .expect("engine")
        .with_observer(MetricsObserver::new());
    let rounds: u64 = if quick() { 40 } else { 400 };
    let (mut plain, mut watched) = (Vec::new(), Vec::new());
    let timing = interleaved_ratio(
        rounds,
        |round| seeded_round(&metrics, &init, &mut watched, SEED, round),
        |round| seeded_round(&noop, &init, &mut plain, SEED, round),
    );
    let meter = metrics.observer().meter();
    assert!(
        meter.accepts() > 0,
        "{label}: the metered engine recorded nothing"
    );
    ledger
        .row(
            label,
            [
                ("rounds", num(rounds as f64)),
                ("noop_round_ms_p50", num(timing.b_wall_p50 * 1e3)),
                ("metrics_round_ms_p50", num(timing.a_wall_p50 * 1e3)),
                ("tries_per_draw", num(meter.tries_per_draw())),
            ],
        )
        .floor(&format!("{label}_metrics_over_noop"), timing.ratio, FLOOR);
    metrics
}

fn write_snapshot() {
    let mut ledger = Ledger::new("obs_overhead", quick());
    ledger.metric("n", N as f64).metric("gnp_p", P);
    twin(&mut ledger, "implicit_complete", complete());
    let gnp = twin(&mut ledger, "implicit_gnp", gnp());
    ledger
        .observer(&gnp.observer().registry().snapshot_json())
        .write("BENCH_obs_overhead.json");
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_snapshot();
}
