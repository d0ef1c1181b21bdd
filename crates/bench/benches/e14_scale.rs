//! E14: implicit-topology scale bench.
//!
//! Times one seeded synchronous Best-of-Three round on the implicit
//! complete graph and implicit `G(n, p)` — topologies that never materialise
//! an edge — and then writes `BENCH_scale.json` at the workspace root
//! through [`bo3_bench::ledger`]: full consensus runs at `n = 10⁶`
//! (complete + `G(n, p)`) plus the SBM phase slice, recording throughput and
//! the topology-vs-CSR memory footprint so the scale trajectory is tracked
//! across changes.  Set `BO3_QUICK=1` (the CI scale-smoke job does) to shrink
//! the criterion measurement; the snapshot's million-vertex consensus runs
//! execute in both modes — implicit topologies are what makes that
//! CI-feasible.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_bench::e14_scale;
use bo3_bench::e20_sampler::MIN_IMPLICIT_OVER_COMPLETE;
use bo3_bench::ledger::{num, Ledger};
use bo3_bench::{quick, Scale};
use bo3_core::configio::Json;
use bo3_core::prelude::*;
use bo3_graph::{Complete, ImplicitGnp, Topology};

const SEED: u64 = 0xE14;

fn bench_one_round<T: Topology>(group: &mut criterion::BenchmarkGroup<'_>, topo: T) {
    let n = topo.n();
    let label = topo.label();
    let mut rng = StdRng::seed_from_u64(SEED);
    let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample_n(n, &mut rng)
        .expect("init");
    let sim = Engine::new(topo).expect("engine");
    group.bench_with_input(BenchmarkId::new("one_round", label), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| sim.step_seeded(&ProtocolSpec::BestOfThree, &init, &mut scratch, SEED, 0));
    });
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_scale");
    group.sample_size(if quick() { 3 } else { 10 });
    if quick() {
        group.measurement_time(Duration::from_millis(500));
    }
    // The criterion timings use 10⁵ vertices in quick mode (sub-second
    // rounds) and the full million otherwise; the snapshot below always
    // runs the million-vertex consensus.
    let n = if quick() { 100_000 } else { 1_000_000 };
    bench_one_round(&mut group, Complete::new(n).expect("complete"));
    bench_one_round(&mut group, ImplicitGnp::new(n, 0.5, SEED).expect("gnp"));
    group.finish();
}

/// Writes the scale snapshot consumed by the perf-trajectory tracking: the
/// quick-scale experiment rows (million-vertex headline + SBM slice).
fn write_snapshot() {
    let mut rows = e14_scale::headline_scenarios(e14_scale::headline_n(Scale::Quick));
    rows.extend(e14_scale::sbm_slice(Scale::Quick));
    // The acceptance gate for the subsystem: a full million-vertex implicit
    // run must reach red consensus with a topology footprint that is
    // vanishingly small next to the CSR it replaces.
    let headline = &rows[0];
    assert!(
        headline.n >= 1_000_000 && headline.red_won(),
        "million-vertex implicit run must reach red consensus, got {headline:?}"
    );
    assert!(
        (headline.topology_bytes as u128) * 1000 < headline.csr_equivalent_bytes,
        "implicit topology must undercut CSR by >1000x, got {headline:?}"
    );
    let mut ledger = Ledger::new("e14_scale", quick());
    for r in &rows {
        ledger.row(
            &r.label,
            [
                ("n", num(r.n as f64)),
                ("topology_bytes", num(r.topology_bytes as f64)),
                ("csr_equivalent_bytes", num(r.csr_equivalent_bytes as f64)),
                ("rounds", num(r.rounds as f64)),
                ("stop", Json::Str(r.stop.into())),
                ("final_blue_fraction", num(r.final_blue_fraction)),
                ("wall_seconds", num(r.wall_seconds)),
                ("updates_per_sec", num(r.updates_per_sec)),
                ("sampler_tries_per_draw", num(r.tries_per_draw)),
            ],
        );
    }
    // rows[0] is the complete-graph headline and rows[1] the implicit
    // G(n, 1/2) headline at the same n, so their throughput ratio tracks
    // the batched sampler's gap to the closed-form kernel over time; its
    // floor is shared with the e20 regression bench.
    let implicit_over_complete = if rows[0].updates_per_sec > 0.0 {
        rows[1].updates_per_sec / rows[0].updates_per_sec
    } else {
        0.0
    };
    // The observer is a metered probe over the headline G(n, p) topology.
    let probe = bo3_bench::obsprobe::probe_spec(
        &TopologySpec::ImplicitGnp {
            n: if quick() { 100_000 } else { 1_000_000 },
            p: 0.5,
        },
        SEED,
        2,
    );
    ledger
        .floor(
            "implicit_over_complete",
            implicit_over_complete,
            MIN_IMPLICIT_OVER_COMPLETE,
        )
        .observer(&probe.snapshot_json)
        .write("BENCH_scale.json");
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_snapshot();
}
