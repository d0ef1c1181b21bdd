//! The three engine workloads (`kn_sync`, `gnp_sync`, `alpha_async`).
//!
//! Untraced, a run executes seeded replicas through
//! `MonteCarlo::run_one_on_topology` for `--seconds`, timing each one and
//! checking that it ended in red consensus within the paper's predicted
//! round count.  Spread evenly over the same window it sets the workload
//! up again and again (topology build plus the validation `Experiment::run`
//! performs before its first replica), timing each set-up.
//!
//! Traced, a run re-drives the same replicas round by round through the
//! layers' public calls (`InitialCondition::sample_topology`,
//! `StoppingCondition::should_stop`, `PackedSnapshot::repack_from`,
//! `Engine::step_seeded_kind` / `step_synchronous` /
//! `step_asynchronous_with`, `Configuration::overwrite_from`), with a span
//! around each call, and checks that every traced replica reproduces its
//! untraced outcome exactly.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bo3_core::bo3_dynamics::parallel::replica_rng;
use bo3_core::bo3_graph::traversal::is_connected;
use bo3_core::bo3_graph::ScalarSampled;
use bo3_core::prelude::*;
// The prelude's `Result` fixes the error type; this module reports strings.
use rand::RngCore;
use std::result::Result;

use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// Committed floor, checked by the traced `gnp_sync` run: batched-lane over
/// strict-scalar sampling throughput on the `gnp_sync` topology.  The lane's
/// gain is instruction-level parallelism, which a busy SMT sibling takes
/// away: on an idle core the ratio reads 1.15–1.30, on a contended one it
/// fell to 0.94.  The floor therefore only catches a lane that is clearly
/// slower than the scalar sampler it replaces.
pub const MIN_BATCHED_OVER_SCALAR: f64 = 0.85;

/// Committed floor, checked by the traced `gnp_sync` run: `gnp_sync` over
/// `kn_sync` vertex updates per second.
pub const MIN_IMPLICIT_OVER_COMPLETE: f64 = 0.05;

/// One engine workload.
#[derive(Debug, Clone)]
pub struct EngineWorkload {
    pub topology: TopologySpec,
    /// Initial red bias of the `Bernoulli(1/2 − δ)` start.
    pub delta: f64,
    pub schedule: Schedule,
    /// `setup_s` samples per untraced run (at most one between two
    /// replicas); `setup_s` is their median.
    pub setups: usize,
    /// Set-ups timed together as one sample, so that a set-up far shorter
    /// than a microsecond is not lost in the clock's resolution.
    pub setup_batch: usize,
    /// The winner every replica must reach (red, as Theorem 1 predicts).
    pub expect_winner: Opinion,
    /// The workload the `sampler.implicit_over_complete` floor compares
    /// against; set on `gnp_sync`, whose traced run measures both sampler
    /// floors.
    pub complete_twin: Option<Box<EngineWorkload>>,
}

impl EngineWorkload {
    /// The Monte-Carlo description every replica of the workload runs:
    /// Best-of-Three, stop at consensus within 10⁴ rounds, one thread.
    pub fn monte_carlo(&self, seed: u64) -> MonteCarlo {
        MonteCarlo {
            protocol: ProtocolSpec::BestOfThree,
            initial: InitialCondition::BernoulliWithBias { delta: self.delta },
            schedule: self.schedule,
            stopping: StoppingCondition::consensus_within(10_000),
            replicas: 1,
            master_seed: seed,
            threads: 1,
            adversary: Vec::new(),
        }
    }
}

/// Checks the built topology the way `Experiment::run` does before its
/// first replica — connectivity and measured degree statistics on a
/// materialised graph, the closed-form statistics or the dense-regime
/// bound on an implicit one — and returns the degree exponent `α` the
/// paper's round prediction needs.
pub fn validate(spec: &TopologySpec, built: &BuiltTopology) -> Result<f64, String> {
    if let Some(graph) = built.as_graph() {
        if !is_connected(graph) {
            return Err(format!("{} is disconnected", spec.label()));
        }
        let stats = DegreeStats::of(graph).map_err(|e| e.to_string())?;
        return stats
            .alpha()
            .ok_or_else(|| format!("{} has degenerate degrees", spec.label()));
    }
    if let Some(stats) = spec.closed_form_degree_stats() {
        return stats
            .alpha()
            .ok_or_else(|| format!("{} has degenerate degrees", spec.label()));
    }
    let n = built.n() as f64;
    let expected = spec.expected_degree().unwrap_or(0.0);
    if expected < n.ln() {
        return Err(format!(
            "{} has expected degree {expected} below ln n",
            spec.label()
        ));
    }
    Ok(expected.ln() / n.ln())
}

/// The paper's predicted rounds to consensus for `(n, α, δ)`.
pub fn predicted_rounds(n: usize, alpha: f64, delta: f64) -> Option<usize> {
    predict(n as f64, alpha, delta, 2.0).predicted_rounds
}

/// The output check on one replica: the expected winner, within the
/// predicted number of rounds.
pub fn outcome_ok(
    winner: Option<Opinion>,
    rounds: usize,
    expect: Opinion,
    predicted: Option<usize>,
) -> bool {
    winner == Some(expect) && predicted.is_some_and(|p| rounds <= p)
}

/// Builds and validates the workload's topology.
fn prepare(w: &EngineWorkload, seed: u64) -> Result<(BuiltTopology, Option<usize>), String> {
    let built = w.topology.build(seed).map_err(|e| e.to_string())?;
    let alpha = validate(&w.topology, &built)?;
    let predicted = predicted_rounds(built.n(), alpha, w.delta);
    Ok((built, predicted))
}

/// Sets the workload up `setup_batch` times in a row and returns the wall
/// time of one set-up, with the last one's result.
fn timed_setup(
    w: &EngineWorkload,
    seed: u64,
) -> (f64, Result<(BuiltTopology, Option<usize>), String>) {
    let batch = w.setup_batch.max(1);
    let start = Instant::now();
    let mut last = black_box(prepare(black_box(w), seed));
    for _ in 1..batch {
        // Free the previous instance first, so peak memory is one topology.
        drop(last);
        last = black_box(prepare(black_box(w), seed));
    }
    (start.elapsed().as_secs_f64() / batch as f64, last)
}

/// The untraced run: every end-to-end metric.
pub fn run(w: &EngineWorkload, seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mc = w.monte_carlo(seed);
    let setups = w.setups.max(1);
    let mut setup_walls = Vec::new();
    let mut prepared = None;
    let (mut walls, mut round_walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut replica = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        // Set-up samples are spread evenly over the window, so they see the
        // machine in the same phases of a neighbour's load as the replicas.
        let due = setup_walls.len() as f64 * seconds / setups as f64;
        if setup_walls.len() < setups && start.elapsed().as_secs_f64() >= due {
            drop(prepared.take());
            match timed_setup(w, seed) {
                (wall, Ok(p)) => {
                    setup_walls.push(wall);
                    prepared = Some(p);
                }
                (_, Err(e)) => {
                    report.check(false, || format!("set-up failed: {e}"));
                    return report;
                }
            }
        }
        let (built, predicted) = prepared.as_ref().expect("set up before the first replica");
        let t = Instant::now();
        let outcome = mc.run_one_on_topology(built, replica);
        let wall = t.elapsed().as_secs_f64();
        match outcome {
            Ok(o) => {
                report.check(
                    outcome_ok(o.winner, o.rounds, w.expect_winner, *predicted),
                    || {
                        format!(
                            "replica {replica}: winner {:?} after {} rounds (predicted ≤ {predicted:?})",
                            o.winner, o.rounds
                        )
                    },
                );
                walls.push(wall);
                round_walls.push(wall / o.rounds.max(1) as f64);
                rates.push((o.rounds * built.n()) as f64 / wall.max(1e-12));
            }
            Err(e) => report.check(false, || format!("replica {replica}: {e}")),
        }
        replica += 1;
    }
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    let gaps_ms: Vec<f64> = round_walls.iter().map(|s| s * 1e3).collect();
    report.set_with("setup_s", median(&setup_walls), &setup_walls);
    report.set_with("consensus_s_p90", quantile(&walls, 0.9), &walls);
    report.set_with("updates_per_s_p10", quantile(&rates, 0.1), &rates);
    report.set_with("job_latency_ms_p90", quantile(&ms, 0.9), &ms);
    report.set_with("update_gap_ms_p90", quantile(&gaps_ms, 0.9), &gaps_ms);
    report
}

/// What a replica ended in: compared field by field between the traced
/// and untraced runs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ending {
    rounds: usize,
    winner: Option<Opinion>,
    final_blue_fraction: f64,
}

/// Records each synchronous chunk's wall time through the engine's public
/// observer hook.  It asks for no sampler meter, so the kernels run
/// exactly the unmetered code path.
#[derive(Default)]
struct ChunkClock {
    walls_ns: Mutex<Vec<u64>>,
}

impl ChunkClock {
    fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.walls_ns.lock().expect("chunk clock lock"))
    }
}

impl Observer for ChunkClock {
    fn enabled(&self) -> bool {
        true
    }

    fn on_chunk(&self, _chunk: u64, _updates: u64, wall_ns: u64) {
        self.walls_ns
            .lock()
            .expect("chunk clock lock")
            .push(wall_ns);
    }
}

/// Chunk statistics of the traced synchronous rounds.
#[derive(Default)]
struct Chunks {
    per_round: Vec<f64>,
    walls_us: Vec<f64>,
}

/// Drives replica `replica` round by round, with a span around every
/// layer call.  Graph-backed topologies use the caller-RNG path (the
/// replica stream drives the whole run), adjacency-free ones the seeded
/// synchronous path — exactly `MonteCarlo::run_one_on_topology`'s split.
fn drive<T: Topology>(
    tracer: &mut Tracer,
    chunks: &mut Chunks,
    mc: &MonteCarlo,
    topo: &T,
    replica: usize,
) -> Result<Ending, String> {
    let id = replica as u64;
    let root = tracer.open("replica", id, None);
    let mut rng = replica_rng(mc.master_seed, id);
    let mut config = tracer
        .span("init.sample", id, Some(root), || {
            mc.initial.sample_topology(topo, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    let engine = Engine::new(topo)
        .map_err(|e| e.to_string())?
        .with_schedule(mc.schedule)
        .with_stopping(mc.stopping)
        .with_threads(1)
        .with_observer(ChunkClock::default());
    let graph_backed = topo.as_graph().is_some();
    let protocol = mc.protocol.build();
    let kind = mc.protocol.kind();
    let run_seed = if graph_backed { 0 } else { rng.next_u64() };
    let mut snap = PackedSnapshot::all_red(0);
    let mut next = Vec::new();
    let mut scratch = AsyncScratch::new();
    let mut rounds = 0usize;
    let reason = loop {
        let stop = tracer.span("stop.check", id, Some(root), || {
            mc.stopping.should_stop(&config, rounds)
        });
        if let Some(reason) = stop {
            break reason;
        }
        tracer.span("state.repack", id, Some(root), || {
            snap.repack_from(config.as_slice())
        });
        match (graph_backed, mc.schedule) {
            (false, Schedule::Synchronous) => {
                tracer.span("engine.round", id, Some(root), || {
                    engine.step_seeded_kind(kind, &config, &mut next, run_seed, rounds as u64)
                });
                tracer.span("state.writeback", id, Some(root), || {
                    config.overwrite_from(&next)
                });
            }
            (true, Schedule::Synchronous) => {
                tracer.span("engine.round", id, Some(root), || {
                    engine.step_synchronous(protocol.as_ref(), &config, &mut next, &mut rng)
                });
                tracer.span("state.writeback", id, Some(root), || {
                    config.overwrite_from(&next)
                });
            }
            (true, Schedule::AsynchronousRandomOrder) => {
                tracer.span("engine.async_round", id, Some(root), || {
                    engine.step_asynchronous_with(
                        protocol.as_ref(),
                        &mut config,
                        &mut scratch,
                        &mut rng,
                    )
                });
            }
            (false, Schedule::AsynchronousRandomOrder) => {
                return Err("seeded asynchronous replicas are not traced".to_string());
            }
        }
        let walls = engine.observer().take();
        if mc.schedule == Schedule::Synchronous {
            chunks.per_round.push(walls.len() as f64);
            chunks
                .walls_us
                .extend(walls.iter().map(|&ns| ns as f64 * 1e-3));
        }
        rounds += 1;
    };
    tracer.close(root);
    Ok(Ending {
        rounds,
        winner: reason.winner(),
        final_blue_fraction: config.blue_fraction(),
    })
}

/// Rounds timed per side by each interleaved twin comparison.
const TWIN_ROUNDS: u64 = 24;

/// Times single rounds of a workload's path on a fixed start configuration
/// (round timing, not a trajectory: every call steps the same start with
/// that round's RNG stream), with observer `O` attached.
struct RoundBench<T: Topology, O: Observer> {
    engine: Engine<T, O>,
    mc: MonteCarlo,
    protocol: Box<dyn Protocol>,
    start: Configuration,
    next: Vec<Opinion>,
    scratch: AsyncScratch,
}

impl<T: Topology, O: Observer> RoundBench<T, O> {
    /// Starts from replica 0's initial configuration.
    fn new(mc: &MonteCarlo, topo: T, observer: O) -> Result<Self, String> {
        let mut rng = replica_rng(mc.master_seed, 0);
        let start = mc
            .initial
            .sample_topology(&topo, &mut rng)
            .map_err(|e| e.to_string())?;
        let engine = Engine::new(topo)
            .map_err(|e| e.to_string())?
            .with_schedule(mc.schedule)
            .with_threads(1)
            .with_observer(observer);
        Ok(RoundBench {
            engine,
            mc: mc.clone(),
            protocol: mc.protocol.build(),
            start,
            next: Vec::new(),
            scratch: AsyncScratch::new(),
        })
    }

    /// Wall time of round `round`; its output is left in `self.next`.
    fn time(&mut self, round: u64) -> f64 {
        let graph_backed = self.engine.topology().as_graph().is_some();
        let mut rng = replica_rng(self.mc.master_seed, round + 1);
        match self.mc.schedule {
            Schedule::Synchronous => {
                let t = Instant::now();
                if graph_backed {
                    self.engine.step_synchronous(
                        self.protocol.as_ref(),
                        &self.start,
                        &mut self.next,
                        &mut rng,
                    );
                } else {
                    self.engine.step_seeded_kind(
                        self.mc.protocol.kind(),
                        &self.start,
                        &mut self.next,
                        self.mc.master_seed,
                        round,
                    );
                }
                t.elapsed().as_secs_f64()
            }
            Schedule::AsynchronousRandomOrder => {
                let mut config = self.start.clone();
                let t = Instant::now();
                self.engine.step_asynchronous_with(
                    self.protocol.as_ref(),
                    &mut config,
                    &mut self.scratch,
                    &mut rng,
                );
                let wall = t.elapsed().as_secs_f64();
                self.next = config.as_slice().to_vec();
                wall
            }
        }
    }
}

/// Alternates rounds of `a` and `b` ([`TWIN_ROUNDS`] each, in the order
/// a b, b a, a b, … so neither side always runs second) and returns the
/// median over rounds of `a`'s wall over `b`'s.  The two walls of a round
/// are taken back to back, so a slow phase of a shared core hits both and
/// cancels in their ratio.  With `same_output`, every round of both must
/// produce the same next configuration.
fn interleave<A: Topology, P: Observer, B: Topology, Q: Observer>(
    a: &mut RoundBench<A, P>,
    b: &mut RoundBench<B, Q>,
    same_output: bool,
) -> Result<f64, String> {
    let mut ratios = Vec::new();
    for round in 0..TWIN_ROUNDS {
        let (wall_a, wall_b) = if round % 2 == 0 {
            let wall_a = a.time(round);
            (wall_a, b.time(round))
        } else {
            let wall_b = b.time(round);
            (a.time(round), wall_b)
        };
        if same_output && a.next != b.next {
            return Err(format!(
                "twin rounds {round} produced different configurations"
            ));
        }
        ratios.push(wall_a / wall_b.max(1e-12));
    }
    Ok(median(&ratios))
}

/// The traced run: every per-layer metric.
pub fn run_traced(w: &EngineWorkload, seed: u64, seconds: f64) -> (Report, Tracer) {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    report.zero_layers_off_path(false);
    let built = match tracer.span("graph.build", 0, None, || w.topology.build(seed)) {
        Ok(built) => built,
        Err(e) => {
            report.check(false, || format!("topology build failed: {e}"));
            return (report, tracer);
        }
    };
    let alpha = match tracer.span("experiment.validate", 0, None, || {
        validate(&w.topology, &built)
    }) {
        Ok(alpha) => alpha,
        Err(e) => {
            report.check(false, || format!("validation failed: {e}"));
            return (report, tracer);
        }
    };
    report.set("graph.build_s", tracer.secs("graph.build")[0]);
    report.set(
        "experiment.validate_s",
        tracer.secs("experiment.validate")[0],
    );
    report.set("graph.topology_mb", built.memory_bytes() as f64 / 1e6);
    let predicted = predicted_rounds(built.n(), alpha, w.delta);

    let mc = w.monte_carlo(seed);
    let mut chunks = Chunks::default();
    let (mut reference_wall, mut traced_wall) = (0f64, 0f64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut replica = 0usize;
    while Instant::now() < deadline {
        let t = Instant::now();
        let reference = mc.run_one_on_topology(&built, replica);
        reference_wall += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let traced = drive(&mut tracer, &mut chunks, &mc, &built, replica);
        traced_wall += t.elapsed().as_secs_f64();
        match (reference, traced) {
            (Ok(r), Ok(traced)) => {
                let untraced = Ending {
                    rounds: r.rounds,
                    winner: r.winner,
                    final_blue_fraction: r.final_blue_fraction,
                };
                report.check(
                    untraced == traced
                        && outcome_ok(r.winner, r.rounds, w.expect_winner, predicted),
                    || format!("replica {replica}: untraced {untraced:?}, traced {traced:?}"),
                );
            }
            (Err(e), _) => report.check(false, || format!("replica {replica}: {e}")),
            (_, Err(e)) => report.check(false, || format!("replica {replica} traced: {e}")),
        }
        replica += 1;
    }

    let ms = |name: &str| -> Vec<f64> { tracer.secs(name).iter().map(|s| s * 1e3).collect() };
    let init = ms("init.sample");
    report.set_with("init.sample_ms", median(&init), &init);
    let async_rounds = ms("engine.async_round");
    let mut rounds = ms("engine.round");
    rounds.extend(&async_rounds);
    report.set_with("engine.round_ms_p50", median(&rounds), &rounds);
    report.set("engine.round_ms_p90", quantile(&rounds, 0.9));
    report.set("engine.async_round_ms_p50", median(&async_rounds));
    report.set(
        "engine.chunks_per_round",
        chunks.per_round.iter().fold(0.0, |a, b| a + b) / chunks.per_round.len().max(1) as f64,
    );
    report.set_with(
        "engine.chunk_us_p50",
        median(&chunks.walls_us),
        &chunks.walls_us,
    );
    for (metric, span) in [
        ("state.repack_ms", "state.repack"),
        ("state.writeback_ms", "state.writeback"),
        ("stop.check_ms", "stop.check"),
    ] {
        let samples = ms(span);
        report.set_with(metric, median(&samples), &samples);
    }
    report.set("trace.overhead", traced_wall / reference_wall.max(1e-12));

    layer_twins(w, seed, &mc, &built, &mut report);
    (report, tracer)
}

/// The measurements that need a twin of the workload's rounds, timed
/// interleaved with the plain rounds: the observer cost and sampler counts
/// (a `MetricsObserver` twin), and on `gnp_sync` the two sampler floors (a
/// `ScalarSampled` twin, and the `kn_sync` rounds at the same `n`).
fn layer_twins(
    w: &EngineWorkload,
    seed: u64,
    mc: &MonteCarlo,
    built: &BuiltTopology,
    report: &mut Report,
) {
    let mut twins = || -> Result<(), String> {
        let mut plain = RoundBench::new(mc, built, NoopObserver)?;
        let mut metered = RoundBench::new(mc, built, MetricsObserver::new())?;
        let noop_over_metered_wall = interleave(&mut plain, &mut metered, true)?;
        let meter = metered.engine.observer().meter();
        report.set(
            "sampler.tries_per_accept",
            meter.tries_per_draw().unwrap_or(0.0),
        );
        report.set(
            "sampler.lane_occupancy",
            meter.lane_occupancy().unwrap_or(0.0),
        );
        report.set("obs.metered_over_noop", noop_over_metered_wall);

        let (mut batched_over_scalar, mut implicit_over_complete) = (0.0, 0.0);
        if let Some(twin) = &w.complete_twin {
            let mut scalar = RoundBench::new(mc, ScalarSampled(built), NoopObserver)?;
            batched_over_scalar = interleave(&mut scalar, &mut plain, true)?;
            let complete = twin.topology.build(seed).map_err(|e| e.to_string())?;
            let mut kn = RoundBench::new(&twin.monte_carlo(seed), &complete, NoopObserver)?;
            // Updates per second of each side, both over n vertices per round.
            implicit_over_complete =
                interleave(&mut kn, &mut plain, false)? * built.n() as f64 / complete.n() as f64;
            report.require(batched_over_scalar >= MIN_BATCHED_OVER_SCALAR, || {
                format!(
                    "sampler.batched_over_scalar = {batched_over_scalar} is below its floor {MIN_BATCHED_OVER_SCALAR}"
                )
            });
            report.require(implicit_over_complete >= MIN_IMPLICIT_OVER_COMPLETE, || {
                format!(
                    "sampler.implicit_over_complete = {implicit_over_complete} is below its floor {MIN_IMPLICIT_OVER_COMPLETE}"
                )
            });
        }
        report.set("sampler.batched_over_scalar", batched_over_scalar);
        report.set("sampler.implicit_over_complete", implicit_over_complete);
        Ok(())
    };
    if let Err(e) = twins() {
        report.require(false, || format!("layer twin runs failed: {e}"));
    }
}
