//! Criterion kernel for E3: one synchronous round of each protocol on the
//! same dense graph (the per-round cost is what makes the voter model's
//! larger round count so expensive end to end).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bo3_core::prelude::*;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_protocol_round");
    group.sample_size(20);
    let graph = GraphSpec::DenseForAlpha {
        n: 10_000,
        alpha: 0.75,
    }
    .generate(&mut StdRng::seed_from_u64(0xB3))
    .expect("graph");
    let sim = Engine::on_graph(&graph).expect("engine");
    let mut rng = StdRng::seed_from_u64(0xB3);
    let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample(&graph, &mut rng)
        .expect("init");
    for (label, spec) in comparison_protocols() {
        group.bench_with_input(BenchmarkId::new("one_round", label), &spec, |b, spec| {
            let mut scratch = Vec::new();
            let mut rng = StdRng::seed_from_u64(0xB3 + 1);
            b.iter(|| sim.step_synchronous(spec, &init, &mut scratch, &mut rng));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
