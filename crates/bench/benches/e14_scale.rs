//! E14: implicit-topology scale bench.
//!
//! Times one seeded synchronous Best-of-Three round on the implicit
//! complete graph and implicit `G(n, p)` — topologies that never materialise
//! an edge — and then writes `BENCH_scale.json` at the workspace root: full
//! consensus runs at `n = 10⁶` (complete + `G(n, p)`) plus the SBM phase
//! slice, recording throughput and the topology-vs-CSR memory footprint so
//! the scale trajectory is tracked across PRs.  Set `E14_QUICK=1` (the CI
//! scale-smoke job does) to shrink the criterion measurement; the snapshot's
//! million-vertex consensus runs execute in both modes — implicit topologies
//! are what makes that CI-feasible.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_bench::e14_scale;
use bo3_bench::Scale;
use bo3_core::prelude::*;
use bo3_graph::{Complete, ImplicitGnp, Topology};

const SEED: u64 = 0xE14;

fn quick_mode() -> bool {
    std::env::var_os("E14_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

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
        b.iter(|| sim.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut scratch, SEED, 0));
    });
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_scale");
    group.sample_size(if quick_mode() { 3 } else { 10 });
    if quick_mode() {
        group.measurement_time(Duration::from_millis(500));
    }
    // The criterion timings use 10⁵ vertices in quick mode (sub-second
    // rounds) and the full million otherwise; the snapshot below always
    // runs the million-vertex consensus.
    let n = if quick_mode() { 100_000 } else { 1_000_000 };
    bench_one_round(&mut group, Complete::new(n).expect("complete"));
    bench_one_round(&mut group, ImplicitGnp::new(n, 0.5, SEED).expect("gnp"));
    group.finish();
}

/// Writes the scale snapshot consumed by the perf-trajectory tracking: the
/// quick-scale experiment rows (million-vertex headline + SBM slice) as
/// hand-rendered JSON.
fn write_snapshot() {
    let mut rows = e14_scale::headline_scenarios(e14_scale::headline_n(Scale::Quick));
    rows.extend(e14_scale::sbm_slice(Scale::Quick));
    let mut body = String::new();
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            body.push_str(",\n");
        }
        body.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"n\": {}, \"topology_bytes\": {}, \
             \"csr_equivalent_bytes\": {}, \"rounds\": {}, \"stop\": \"{}\", \
             \"final_blue_fraction\": {:.6}, \"wall_seconds\": {:.3}, \
             \"updates_per_sec\": {:.0}, \"sampler_tries_per_draw\": {}}}",
            r.label,
            r.n,
            r.topology_bytes,
            r.csr_equivalent_bytes,
            r.rounds,
            r.stop,
            r.final_blue_fraction,
            r.wall_seconds,
            r.updates_per_sec,
            bo3_bench::obsprobe::json_opt(r.tries_per_draw),
        ));
    }
    // rows[0] is the complete-graph headline and rows[1] the implicit
    // G(n, 1/2) headline at the same n, so their throughput ratio tracks
    // the batched sampler's gap to the closed-form kernel PR over PR.
    let implicit_over_complete = if rows[0].updates_per_sec > 0.0 {
        rows[1].updates_per_sec / rows[0].updates_per_sec
    } else {
        0.0
    };
    let json = format!(
        "{{\n  \"experiment\": \"e14_scale\",\n  \"protocol\": \"best-of-3\",\n  \
         \"quick_mode\": {},\n  \"implicit_over_complete\": {:.3},\n  \
         \"ratio_floor\": {:.3},\n  \"rows\": [\n{}\n  ]\n}}\n",
        quick_mode(),
        implicit_over_complete,
        bo3_bench::e20_sampler::MIN_IMPLICIT_OVER_COMPLETE,
        body
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    std::fs::write(path, &json).expect("write BENCH_scale.json");
    println!("snapshot ({path}):\n{json}");

    // The observer-registry snapshot of a metered probe over the headline
    // G(n, p) topology lands next to the BENCH file (schema-checked by the
    // CI scale-smoke job).
    let probe = bo3_bench::obsprobe::probe_spec(
        &TopologySpec::ImplicitGnp {
            n: if quick_mode() { 100_000 } else { 1_000_000 },
            p: 0.5,
        },
        SEED,
        2,
    );
    bo3_bench::obsprobe::write_metrics_snapshot(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS_scale.json"),
        "e14_scale",
        &probe.snapshot_json,
    );

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
    // The batched-sampler floor (shared with the e20 regression bench):
    // the implicit headline must stay within the committed ratio of the
    // complete-graph kernel at the same n.
    assert!(
        implicit_over_complete >= bo3_bench::e20_sampler::MIN_IMPLICIT_OVER_COMPLETE,
        "implicit/complete throughput ratio {implicit_over_complete:.3} fell below the committed \
         floor {:.3} (see BENCH_scale.json)",
        bo3_bench::e20_sampler::MIN_IMPLICIT_OVER_COMPLETE
    );
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_snapshot();
}
