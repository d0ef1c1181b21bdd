//! E20 — batched-sampler throughput regression (kernel vs implicit).
//!
//! The complete-graph kernel samples neighbours in one closed-form try;
//! the hash-defined topologies rejection-sample, which historically left
//! implicit `G(n, 1/2)` an order of magnitude behind the kernel.  The
//! draw-ahead lane (`bo3_graph::lane`) closes that gap without changing a
//! single accepted draw; this experiment is the tracked regression that
//! keeps it closed:
//!
//! * times seeded Best-of-Three rounds — engine-only, no scenario
//!   scaffolding — on the complete graph and on implicit `G(n, 1/2)`,
//!   under both schedules;
//! * times the implicit sync rounds against the same topology with the
//!   lane disabled ([`ScalarSampled`]), the pre-lane baseline, as
//!   interleaved round pairs ([`batched_over_scalar`]);
//! * reports the implicit/complete throughput **ratio** per schedule
//!   (gated by [`MIN_IMPLICIT_OVER_COMPLETE`]) and the batched/scalar
//!   **speedup** on the identical topology (gated by
//!   [`MIN_BATCHED_OVER_SCALAR`] — self-relative, so it holds on any
//!   machine) in the `e20_sampler` binary, which writes
//!   `BENCH_sampler.json` and `METRICS_sampler.json` at the workspace
//!   root;
//! * records the lane's batch occupancy (candidates consumed vs drawn).
//!
//! The CI bench-smoke job runs the binary in quick mode (`E20_QUICK=1`)
//! and fails when either gate regresses below its floor.

use std::time::Instant;

use bo3_core::prelude::*;
use bo3_core::report::Table;
use bo3_graph::{BuiltTopology, ScalarSampled, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Scale;

/// Master seed for the whole experiment.
const SEED: u64 = 0xE20;

/// `G(n, p)` edge probability of the implicit scenario — the paper's dense
/// headline and the rejection sampler's worst-friendly case (every other
/// candidate misses).
const P: f64 = 0.5;

/// Committed floor for the implicit `G(n, 1/2)` over complete-graph
/// throughput ratio under the synchronous schedule.
///
/// This ratio is a cross-kernel comparison, so it is machine-sensitive:
/// the complete-graph kernel is pure RNG + bit ops (~7 ns/update here)
/// while the implicit sampler must also evaluate a 128-bit-mixing pair
/// hash per candidate by construction — at `p = 1/2` that is six tries
/// (six hashes, six Lemire reductions) per Best-of-Three update, an
/// irreducible ~35 ns of work the complete kernel simply does not do.
/// Measured 0.07–0.12 sync on the reference shared-vCPU box (complete
/// kernel 90–145M updates/s unobserved, batched implicit 10.5–14M); the
/// floor sits below the worst observed run so steal noise does not flap
/// CI.  This gate catches catastrophic sampler regressions (a hash or
/// dispatch blow-up); the *lane-specific* guarantee is
/// [`MIN_BATCHED_OVER_SCALAR`], which compares the same topology to
/// itself and is machine-independent.
pub const MIN_IMPLICIT_OVER_COMPLETE: f64 = 0.05;

/// Committed floor for the batched-lane over strict-scalar sampling
/// speed ratio on implicit `G(n, 1/2)` under the synchronous schedule —
/// the self-relative speedup gate ([`batched_over_scalar`]).
///
/// Both sides run the identical seeded round on the identical frozen edge
/// set (the baseline hides the pair-hash spec behind [`ScalarSampled`],
/// forcing the pre-lane rejection sampler), so this ratio cancels machine
/// speed and RNG cost: it is the lane's genuine contribution.  On a 2-vCPU
/// Intel Xeon VM it read 0.95–1.23 over eight runs: 1.15–1.27 while the VM
/// was quiet, 0.96–1.11 while it was contended, when the lane's gain
/// itself collapses (the sampler-only gap is ~1.4x; per-update engine work
/// common to both paths dilutes it).  The floor fails if the lane routing
/// regresses to a wash.
pub const MIN_BATCHED_OVER_SCALAR: f64 = 1.05;

/// Rounds timed per measurement (after one untimed warm-up round).
fn timed_rounds(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 4,
        Scale::Paper => 16,
    }
}

/// Round pairs [`batched_over_scalar`] times (even: its order-balanced
/// estimate combines consecutive pairs).
fn twin_pairs(scale: Scale) -> u64 {
    match scale {
        Scale::Quick => 24,
        Scale::Paper => 48,
    }
}

/// Timed repetitions per cell; the row keeps the **fastest** repetition.
/// Shared-vCPU steal only ever makes a run look slower, so best-of-N is
/// the estimator that converges on the machine's true throughput (and on
/// the noisy boxes this bench gates CI on, single-shot wall clock swings
/// by ±30%).
const TIMED_REPS: usize = 3;

/// Vertices per measurement.
pub fn measure_n(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 1_000_000,
        Scale::Paper => 4_000_000,
    }
}

/// One timed measurement: a topology × schedule cell.
#[derive(Debug, Clone)]
pub struct SamplerRow {
    /// Topology label.
    pub label: String,
    /// Schedule label (`"sync"` / `"async"`).
    pub schedule: &'static str,
    /// Number of vertices.
    pub n: usize,
    /// Rounds timed.
    pub rounds: u64,
    /// Wall-clock seconds over the timed rounds.
    pub wall_seconds: f64,
    /// Sustained vertex updates per second.
    pub updates_per_sec: f64,
    /// Mean sampler tries per accepted draw (1 on the closed forms and
    /// CSR; `None` only if the metered run made no draw).
    pub tries_per_draw: Option<f64>,
    /// Lane batch occupancy — candidates consumed as tries over candidates
    /// pre-drawn (`None` when the run never took the lane path).
    pub lane_occupancy: Option<f64>,
}

/// Times `rounds` seeded Best-of-Three rounds of `schedule` on the
/// topology `spec` builds, after one untimed warm-up round.
///
/// The timed engine runs **unobserved**, so the ratios time the kernels
/// alone.  The sampler statistics (tries per draw, lane occupancy) come
/// from a separate short metered run of the same seeded rounds, whose
/// draws are bit-identical by the observer contract.
///
/// Synchronous rounds step the same initial configuration repeatedly
/// (round timing, not trajectory); asynchronous rounds run one seeded
/// fixed-round slice per measurement, matching how each schedule is
/// driven end to end.
pub fn measure(spec: &TopologySpec, schedule: Schedule, rounds: u64, seed: u64) -> SamplerRow {
    measure_wrapped(spec, schedule, rounds, seed, |t| t)
}

/// [`measure`] with the topology forced onto the strict scalar rejection
/// sampler via [`ScalarSampled`] — the pre-lane baseline, measured under
/// the identical engine, schedule and seeds, whose sampler statistics
/// [`verify`] checks.
pub fn measure_scalar_baseline(
    spec: &TopologySpec,
    schedule: Schedule,
    rounds: u64,
    seed: u64,
) -> SamplerRow {
    measure_wrapped(spec, schedule, rounds, seed, ScalarSampled)
}

fn measure_wrapped<T, W>(
    spec: &TopologySpec,
    schedule: Schedule,
    rounds: u64,
    seed: u64,
    wrap: W,
) -> SamplerRow
where
    T: Topology,
    W: Fn(BuiltTopology) -> T,
{
    let topo = spec.build(seed).expect("e20 topology");
    let n = topo.n();
    let label = wrap(topo).label();
    let mut rng = StdRng::seed_from_u64(seed);
    let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample_n(n, &mut rng)
        .expect("e20 init");
    let engine = build_engine(spec, schedule, rounds, seed, &wrap);
    let wall = match schedule {
        Schedule::Synchronous => {
            let mut scratch = Vec::new();
            engine.step_seeded_kind(
                ProtocolKind::BestOfThree,
                &init,
                &mut scratch,
                seed,
                u64::MAX,
            );
            let mut best = f64::INFINITY;
            for _ in 0..TIMED_REPS {
                let start = Instant::now();
                for round in 0..rounds {
                    engine.step_seeded_kind(
                        ProtocolKind::BestOfThree,
                        &init,
                        &mut scratch,
                        seed,
                        round,
                    );
                }
                best = best.min(start.elapsed().as_secs_f64());
            }
            best
        }
        Schedule::AsynchronousRandomOrder => {
            engine
                .run_seeded_kind(ProtocolKind::BestOfThree, init.clone(), seed ^ 1)
                .expect("e20 warm-up");
            let mut best = f64::INFINITY;
            for _ in 0..TIMED_REPS {
                let start = Instant::now();
                engine
                    .run_seeded_kind(ProtocolKind::BestOfThree, init.clone(), seed)
                    .expect("e20 async slice");
                best = best.min(start.elapsed().as_secs_f64());
            }
            best
        }
    };
    // The metered twin: one seeded round with the observer installed, for
    // the sampler statistics the timed run deliberately skipped.
    let metered =
        build_engine(spec, schedule, 1, seed, &wrap).with_observer(MetricsObserver::new());
    match schedule {
        Schedule::Synchronous => {
            let mut scratch = Vec::new();
            metered.step_seeded_kind(ProtocolKind::BestOfThree, &init, &mut scratch, seed, 0);
        }
        Schedule::AsynchronousRandomOrder => {
            metered
                .run_seeded_kind(ProtocolKind::BestOfThree, init, seed)
                .expect("e20 metered round");
        }
    }
    let meter = metered.observer().meter();
    SamplerRow {
        label,
        schedule: match schedule {
            Schedule::Synchronous => "sync",
            Schedule::AsynchronousRandomOrder => "async",
        },
        n,
        rounds,
        wall_seconds: wall,
        updates_per_sec: if wall > 0.0 {
            (rounds as u128 * n as u128) as f64 / wall
        } else {
            0.0
        },
        tries_per_draw: (meter.accepts() > 0)
            .then(|| meter.tries() as f64 / meter.accepts() as f64),
        lane_occupancy: meter.lane_occupancy(),
    }
}

/// An unobserved engine on the (wrapped) topology `spec` builds, under
/// `schedule`, capped at `rounds` rounds, all cores.
fn build_engine<T, W>(
    spec: &TopologySpec,
    schedule: Schedule,
    rounds: u64,
    seed: u64,
    wrap: &W,
) -> Engine<T>
where
    T: Topology,
    W: Fn(BuiltTopology) -> T,
{
    Engine::new(wrap(spec.build(seed).expect("e20 topology")))
        .expect("e20 engine")
        .with_schedule(schedule)
        .with_stopping(StoppingCondition::fixed_rounds(rounds as usize))
        .with_threads(0)
}

/// The four measurement cells: {complete, implicit `G(n, 1/2)`} × {sync,
/// async} at `n = measure_n(scale)`.
pub fn measure_all(scale: Scale) -> Vec<SamplerRow> {
    let n = measure_n(scale);
    let rounds = timed_rounds(scale);
    let complete = TopologySpec::Complete { n };
    let gnp = TopologySpec::ImplicitGnp { n, p: P };
    vec![
        measure(&complete, Schedule::Synchronous, rounds, SEED),
        measure(&gnp, Schedule::Synchronous, rounds, SEED),
        measure(&complete, Schedule::AsynchronousRandomOrder, rounds, SEED),
        measure(&gnp, Schedule::AsynchronousRandomOrder, rounds, SEED),
    ]
}

/// The batched lane's speed over the strict scalar sampler at `scale`:
/// [`batched_over_scalar`] on implicit `G(n, 1/2)` at `n =
/// measure_n(scale)`.
pub fn measure_batched_over_scalar(scale: Scale) -> f64 {
    batched_over_scalar(measure_n(scale), twin_pairs(scale), SEED)
}

/// Wall seconds of seeded synchronous Best-of-Three round `round` from
/// `init` through `engine`, whose opinions land in `out`.
fn round_wall<T: Topology>(
    engine: &Engine<T>,
    init: &Configuration,
    out: &mut Vec<Opinion>,
    seed: u64,
    round: u64,
) -> f64 {
    let start = Instant::now();
    engine.step_seeded_kind(ProtocolKind::BestOfThree, init, out, seed, round);
    start.elapsed().as_secs_f64()
}

/// The draw-ahead lane's speed over the strict scalar sampler on implicit
/// `G(n, 1/2)`: `pairs` seeded synchronous Best-of-Three rounds through
/// two one-thread engines — the bare topology, which takes the lane, and
/// the same topology behind [`ScalarSampled`] — one round through each per
/// pair, both from the same start and seed, every pair's outputs asserted
/// identical.
///
/// The two walls of a pair are taken back to back, so a slow phase of a
/// shared core hits both and cancels in their ratio.  Whichever side runs
/// second may find the round's reads cached, so the order alternates pair
/// by pair, and each lane-first pair is combined with the scalar-first
/// pair after it (the geometric mean of their scalar-over-lane wall
/// ratios), which cancels the order; the result is the median of those.
pub fn batched_over_scalar(n: usize, pairs: u64, seed: u64) -> f64 {
    let topo = TopologySpec::ImplicitGnp { n, p: P }
        .build(seed)
        .expect("e20 topology");
    let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
        .sample_n(n, &mut StdRng::seed_from_u64(seed))
        .expect("e20 init");
    let lane = Engine::new(&topo).expect("e20 engine").with_threads(1);
    let scalar = Engine::new(ScalarSampled(&topo))
        .expect("e20 engine")
        .with_threads(1);
    let (mut fast, mut slow) = (Vec::new(), Vec::new());
    // One untimed warm-up pair.
    round_wall(&lane, &init, &mut fast, seed, u64::MAX);
    round_wall(&scalar, &init, &mut slow, seed, u64::MAX);
    let ratios: Vec<f64> = (0..pairs)
        .map(|round| {
            let (lane_wall, scalar_wall) = if round % 2 == 0 {
                let lane_wall = round_wall(&lane, &init, &mut fast, seed, round);
                (
                    lane_wall,
                    round_wall(&scalar, &init, &mut slow, seed, round),
                )
            } else {
                let scalar_wall = round_wall(&scalar, &init, &mut slow, seed, round);
                (
                    round_wall(&lane, &init, &mut fast, seed, round),
                    scalar_wall,
                )
            };
            assert_eq!(fast, slow, "the lane changed round {round}");
            scalar_wall / lane_wall.max(1e-12)
        })
        .collect();
    let mut balanced: Vec<f64> = ratios
        .chunks_exact(2)
        .map(|p| (p[0] * p[1]).sqrt())
        .collect();
    balanced.sort_by(f64::total_cmp);
    balanced[balanced.len() / 2]
}

/// The implicit-over-complete throughput ratio of one schedule's row pair.
pub fn ratio(complete: &SamplerRow, implicit: &SamplerRow) -> f64 {
    if complete.updates_per_sec > 0.0 {
        implicit.updates_per_sec / complete.updates_per_sec
    } else {
        0.0
    }
}

/// Formats measurement rows as the experiment table.
pub fn results_table(title: &str, rows: &[SamplerRow]) -> Table {
    let mut table = Table::new(
        title,
        &[
            "scenario",
            "schedule",
            "n",
            "rounds",
            "wall_s",
            "updates/s",
            "tries/draw",
            "lane_occupancy",
        ],
    );
    for r in rows {
        table.push_row(vec![
            r.label.clone(),
            r.schedule.to_string(),
            r.n.to_string(),
            r.rounds.to_string(),
            format!("{:.3}", r.wall_seconds),
            format!("{:.0}", r.updates_per_sec),
            crate::obsprobe::json_opt(r.tries_per_draw),
            crate::obsprobe::json_opt(r.lane_occupancy),
        ]);
    }
    table
}

/// Runs the full experiment at `scale` and returns the table.
pub fn run(scale: Scale) -> Table {
    let rows = measure_all(scale);
    let sync_ratio = ratio(&rows[0], &rows[1]);
    let async_ratio = ratio(&rows[2], &rows[3]);
    let speedup = measure_batched_over_scalar(scale);
    results_table(
        &format!(
            "E20: batched-sampler regression (implicit/complete sync = {:.3}, \
             async = {:.3}, batched/scalar = {:.2}x)",
            sync_ratio, async_ratio, speedup,
        ),
        &rows,
    )
}

/// The regression checks, parameterised by `n` so debug-build tests can run
/// a smaller instance: the implicit rows must have taken the lane path
/// (occupancy reported, in `(0, 1]`), the complete rows must not, and try
/// counts must match the scalar sampler's `≈ 1/p` expectation.
pub fn verify(n: usize, rounds: u64) -> bool {
    let complete = measure(
        &TopologySpec::Complete { n },
        Schedule::Synchronous,
        rounds,
        SEED,
    );
    let implicit = measure(
        &TopologySpec::ImplicitGnp { n, p: P },
        Schedule::Synchronous,
        rounds,
        SEED,
    );
    let scalar = measure_scalar_baseline(
        &TopologySpec::ImplicitGnp { n, p: P },
        Schedule::Synchronous,
        rounds,
        SEED,
    );
    let occupancy_ok = match implicit.lane_occupancy {
        Some(occ) => occ > 0.0 && occ <= 1.0,
        None => false,
    };
    let tries_ok = match implicit.tries_per_draw {
        Some(rate) => (1.5..3.0).contains(&rate),
        None => false,
    };
    // The scalar baseline rejects at the same ≈ 1/p rate but must never
    // take the lane (that is the wrapper's contract).
    let scalar_ok = scalar.lane_occupancy.is_none()
        && scalar
            .tries_per_draw
            .is_some_and(|rate| (1.5..3.0).contains(&rate));
    occupancy_ok && tries_ok && scalar_ok && complete.lane_occupancy.is_none()
}

#[cfg(test)]
mod tests {
    use super::*;

    // Debug-build size: spans many 4096-vertex chunks; the release-mode
    // binary (CI bench-smoke) measures the real million-vertex ratio.
    const TEST_N: usize = 50_000;

    #[test]
    fn implicit_rows_take_the_lane_path_and_complete_rows_do_not() {
        assert!(verify(TEST_N, 2));
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let rows = vec![
            measure(
                &TopologySpec::Complete { n: TEST_N },
                Schedule::Synchronous,
                1,
                SEED,
            ),
            measure(
                &TopologySpec::ImplicitGnp { n: TEST_N, p: P },
                Schedule::AsynchronousRandomOrder,
                1,
                SEED,
            ),
        ];
        let table = results_table("E20 smoke", &rows);
        assert_eq!(table.num_rows(), 2);
        let csv = table.to_csv();
        assert!(csv.contains("implicit_complete"));
        assert!(csv.contains("implicit_gnp"));
        assert!(csv.contains("sync"));
        assert!(csv.contains("async"));
    }

    #[test]
    fn batched_over_scalar_pairs_produce_the_same_rounds() {
        // Every pair asserts equal outputs; the ratio itself is a timing.
        assert!(batched_over_scalar(TEST_N, 2, SEED) > 0.0);
    }

    #[test]
    fn async_implicit_measurement_reports_lane_occupancy() {
        let row = measure(
            &TopologySpec::ImplicitGnp { n: TEST_N, p: P },
            Schedule::AsynchronousRandomOrder,
            2,
            SEED,
        );
        let occ = row
            .lane_occupancy
            .expect("async seeded rounds take the lane");
        assert!(occ > 0.0 && occ <= 1.0, "occupancy {occ}");
        assert!(row.updates_per_sec > 0.0);
    }
}
