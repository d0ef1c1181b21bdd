//! E17: adversarial Best-of-Three — zealot tipping point and lossy SBM.
//!
//! Two questions from the adversary layer, answered at paper scale and
//! written to `BENCH_adversarial.json` at the workspace root through
//! [`bo3_bench::ledger`], one row each:
//!
//! 1. **How many zealots flip the outcome on `K_n` at `n = 10⁵`?**  A
//!    prefix of `z` vertices is frozen blue (`ZealotIds`) while everyone
//!    else starts red; binary search finds the smallest `z` whose pull
//!    drags the red majority to blue.  Mean-field, the update map becomes
//!    `x ↦ ζ + (1 − ζ)(3x² − 2x³)`, whose low fixed point disappears at
//!    `ζ* ≈ 0.109` — the measured tipping point should land near `0.109 n`.
//! 2. **Does 10 % message drop move the SBM polarisation at `n = 10⁶`?**
//!    Two planted blocks start in opposing unanimity; after a fixed round
//!    budget the polarisation `|blue₀ − blue₁|` (per-block blue fractions)
//!    is compared between the honest run and `Drop { q: 0.1 }`.  The block
//!    structure must be assortative enough for the polarised state to be
//!    stable at all — mean-field, the own-block sample weight
//!    `p_in / (p_in + p_out)` has to exceed `5/6`, hence `0.6 / 0.08` here.
//!    Dropped samples fall back to self-opinion, so drop *reinforces* the
//!    local echo chamber — the snapshot tracks the ratio across PRs.
//!
//! The criterion slice times one adversarial synchronous round against the
//! honest kernel at the same size, pinning the wrapper's overhead.  Set
//! `BO3_QUICK=1` (the CI bench-smoke job does) to shrink every size.

use std::time::Duration;

use criterion::{criterion_group, BenchmarkId, Criterion};

use bo3_bench::ledger::{num, Ledger};
use bo3_bench::quick;
use bo3_core::configio::Json;
use bo3_core::prelude::*;
use bo3_graph::{Complete, ImplicitSbm};

const SEED: u64 = 0xE17;

fn prefix_blue(n: usize, blue: usize) -> Configuration {
    let mut config = Configuration::all_red(n);
    for v in 0..blue {
        config.set(v, Opinion::Blue);
    }
    config
}

// --- criterion slice: wrapper overhead on one synchronous round -----------

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e17_adversarial");
    group.sample_size(if quick() { 3 } else { 10 });
    if quick() {
        group.measurement_time(Duration::from_millis(500));
    }
    let n = if quick() { 20_000 } else { 100_000 };
    let init = prefix_blue(n, n / 3);
    let honest = Engine::new(Complete::new(n).expect("complete")).expect("engine");
    group.bench_with_input(BenchmarkId::new("one_round", "honest"), &(), |b, ()| {
        let mut scratch = Vec::new();
        b.iter(|| honest.step_seeded(&ProtocolSpec::BestOfThree, &init, &mut scratch, SEED, 0));
    });
    let specs = [
        AdversarySpec::Zealots { fraction: 0.05 },
        AdversarySpec::Byzantine { fraction: 0.05 },
        AdversarySpec::Drop { q: 0.1 },
    ];
    let adversarial = Engine::new(Complete::new(n).expect("complete"))
        .expect("engine")
        .with_adversary(Adversary::build(&specs, n, SEED).expect("adversary"));
    group.bench_with_input(
        BenchmarkId::new("one_round", "adversarial"),
        &(),
        |b, ()| {
            let mut scratch = Vec::new();
            b.iter(|| {
                adversarial.step_seeded(&ProtocolSpec::BestOfThree, &init, &mut scratch, SEED, 0)
            });
        },
    );
    group.finish();
}

// --- snapshot 1: zealot tipping point on K_n ------------------------------

/// Runs frozen-blue-prefix zealots against an otherwise all-red `K_n` and
/// reports whether blue ends up with the majority after `rounds`.
fn zealots_flip(n: usize, z: usize, rounds: usize) -> bool {
    let adv = Adversary::build(
        &[AdversarySpec::ZealotIds {
            vertices: (0..z).collect(),
        }],
        n,
        SEED,
    )
    .expect("adversary");
    let result = Engine::new(Complete::new(n).expect("complete"))
        .expect("engine")
        .with_stopping(StoppingCondition::fixed_rounds(rounds))
        .with_adversary(adv)
        .run_seeded(&ProtocolSpec::BestOfThree, prefix_blue(n, z), SEED)
        .expect("zealot run");
    result.final_blue_fraction > 0.5
}

/// Binary search for the smallest zealot count that flips `K_n` to blue.
fn zealot_tipping_point(n: usize, rounds: usize) -> usize {
    let (mut lo, mut hi) = (0usize, n / 2);
    debug_assert!(zealots_flip(n, hi, rounds), "n/2 zealots must flip");
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if zealots_flip(n, mid, rounds) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

// --- snapshot 2: SBM polarisation under message drop ----------------------

/// Steps Best-of-Three on a two-block planted partition from opposing
/// unanimity and returns the polarisation `|blue₀ − blue₁|` after `rounds`
/// (per-block blue fractions; `1.0` = perfectly polarised, `0.0` = mixed).
fn sbm_polarisation(n: usize, rounds: usize, drop_q: Option<f64>) -> f64 {
    let topo = ImplicitSbm::new(n, 2, 0.6, 0.08, SEED).expect("sbm");
    let mut engine = Engine::new(topo).expect("engine");
    if let Some(q) = drop_q {
        let adv = Adversary::build(&[AdversarySpec::Drop { q }], n, SEED).expect("adversary");
        engine = engine.with_adversary(adv);
    }
    let mut current = prefix_blue(n, n / 2);
    let mut next: Vec<Opinion> = Vec::new();
    for round in 0..rounds as u64 {
        engine.step_seeded(&ProtocolSpec::BestOfThree, &current, &mut next, SEED, round);
        current.overwrite_from(&next);
    }
    let half = n / 2;
    let blue0 = (0..half).filter(|&v| current.get(v).is_blue()).count() as f64 / half as f64;
    let blue1 = (half..n).filter(|&v| current.get(v).is_blue()).count() as f64 / half as f64;
    (blue0 - blue1).abs()
}

fn write_snapshot() {
    let quick = quick();
    let (kn_n, kn_rounds) = if quick { (10_000, 100) } else { (100_000, 200) };
    let tipping = zealot_tipping_point(kn_n, kn_rounds);
    let tipping_fraction = tipping as f64 / kn_n as f64;
    // Mean-field predicts ζ* ≈ 0.109; give finite-size effects a wide berth
    // but catch an order-of-magnitude regression.
    assert!(
        (0.02..=0.30).contains(&tipping_fraction),
        "zealot tipping fraction {tipping_fraction} implausibly far from the mean-field 0.109"
    );

    let (sbm_n, sbm_rounds) = if quick {
        (100_000, 10)
    } else {
        (1_000_000, 20)
    };
    let honest = sbm_polarisation(sbm_n, sbm_rounds, None);
    let lossy = sbm_polarisation(sbm_n, sbm_rounds, Some(0.1));
    assert!(
        honest > 0.5,
        "opposing-unanimity SBM blocks must stay polarised honestly, got {honest}"
    );
    assert!(
        lossy > 0.0,
        "10% drop must not erase the polarisation outright, got {lossy}"
    );
    let ratio = lossy / honest;

    Ledger::new("e17_adversarial", quick)
        .row(
            "zealot_flip",
            [
                ("topology", Json::Str("complete".into())),
                ("n", num(kn_n as f64)),
                ("rounds", num(kn_rounds as f64)),
                ("min_zealots_to_flip", num(tipping as f64)),
                ("tipping_fraction", num(tipping_fraction)),
                ("mean_field_prediction", num(0.109)),
            ],
        )
        .row(
            "sbm_drop",
            [
                ("topology", Json::Str("implicit_sbm".into())),
                ("n", num(sbm_n as f64)),
                ("blocks", num(2.0)),
                ("p_in", num(0.6)),
                ("p_out", num(0.08)),
                ("rounds", num(sbm_rounds as f64)),
                ("drop_q", num(0.1)),
                ("polarisation_honest", num(honest)),
                ("polarisation_dropped", num(lossy)),
                ("dropped_over_honest", num(ratio)),
            ],
        )
        .write("BENCH_adversarial.json");
}

criterion_group!(benches, bench);

fn main() {
    benches();
    write_snapshot();
}
