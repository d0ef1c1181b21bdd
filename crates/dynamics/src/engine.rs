//! The unified simulation engine.
//!
//! [`Engine`] is generic over [`bo3_graph::Topology`] and owns every
//! stepping implementation in the crate — one per [`Schedule`]:
//!
//! * **synchronous** — the paper's model: every vertex reads the previous
//!   round's snapshot.  Built-in protocols run the monomorphized kernels of
//!   [`crate::kernel`] over a bit-packed snapshot; the seeded entry points
//!   derive one RNG per `(master_seed, round, chunk)` work unit and scale
//!   across threads, bit-identical at any thread count.
//! * **asynchronous (random sequential)** — the distributed-systems
//!   ablation: every vertex updates exactly once per round, in a fresh
//!   uniformly random order, reading the *current* (partially updated)
//!   state.  Works on **any** topology — an implicit `G(n, 1/2)` at
//!   `n = 10⁶` runs without materialising an edge — and the seeded entry
//!   derives one RNG per round (see [`ASYNC_ROUND_CHUNK`]), so results are
//!   reproducible and trivially independent of the thread count.
//!
//! A protocol is a [`ProtocolSpec`], whose kernel the engine runs.  The
//! one protocol without a kernel ([`Protocol::kind`] is `None`) is
//! [`crate::kernel::DynOnly`], which runs a spec's `dyn` reference
//! ([`Protocol::update`]) to pin the kernels against it.  It reads
//! neighbour rows through [`UpdateContext`], which only a materialised
//! graph can provide; the engine serves it whenever
//! [`bo3_graph::Topology::as_graph`] yields one and returns a typed error
//! otherwise.
//!
//! A run's only state is a [`PackedSnapshot`]: a synchronous round writes
//! a second one and the two swap, an asynchronous round flips bits of one.
//! [`Configuration`] appears only at the API edge, where the entry points
//! pack their input and the step entry points unpack their output.
//!
//! Every public step and run entry point is argument validation (one
//! function, shared by all of them) plus one call into two private pieces.
//! The *round function* is the single match over the schedule, the RNG
//! source (the caller's RNG, or the seeded `(master_seed, round, chunk)`
//! streams) and the rule (a spec's kernel, or the `dyn` loop); it also
//! times the round and reports it to the observer.  The *budgeted driver*
//! owns the stopping condition, the budget, the trace, the adversary tally
//! and checkpoint capture.  Stepping a step entry point round by round
//! under the stopping condition therefore reproduces the matching run,
//! observer counts included.
//!
//! # Kernel routing
//!
//! A kernel round is made of work units: `CHUNK_SIZE` chunks of a
//! synchronous round, or one whole asynchronous round.  Each unit matches
//! its [`ProtocolSpec`] once, to pick the kernel's update rule, and the
//! topology's [`Shape`] once, to pick the neighbour source over the
//! concrete family (an opaque wrapper is its own family):
//!
//! * the draw-ahead lane, for a hash-defined family, a pure rule and an
//!   honest seeded unit — caller-RNG rounds keep the strict scalar sampler;
//! * the phase-split CSR gather, for a materialised graph, a pure rule and
//!   an honest unit on either schedule: a synchronous chunk or an
//!   asynchronous round, seeded or on the caller's RNG;
//! * otherwise the sampler over the family, wrapped in the adversary's
//!   source when one is attached.  Without an adversary no adversarial
//!   code runs.
//!
//! Every route draws the kernel stream exactly like the sampler over the
//! engine's own topology, so which one runs never shows in the output; the
//! kernel-equivalence suite's fingerprint table pins every route's output.
//! Only the two matches are methods of the engine; the sweeps behind them
//! are free functions, so each rule × source × sweep is compiled once per
//! family and RNG type, not again per topology and observer type (only an
//! opaque topology's sampler is).

use std::sync::atomic::{AtomicU64, Ordering};

use rand::seq::SliceRandom;
use rand::RngCore;

use bo3_graph::{CsrGraph, CsrTopology, NeighbourLane, PairHashSpec, Shape, Topology};

use crate::adversary::{Adversarial, Adversary, AdversaryCounters};
use crate::checkpoint::{RunBudget, RunCheckpoint, RunOutcome, RUN_CHECKPOINT_VERSION};
use crate::error::{DynamicsError, Result};
use crate::kernel::{
    self, Coin, Fixed, Local, PackedSnapshot, Pure, Sampler, SamplerWork, Sweep, UpdateRule,
    MAX_BEST_OF_K,
};
use crate::observe::{maybe_now, NoopObserver, Observer};
use crate::opinion::{blue_fraction, Configuration, Opinion};
use crate::parallel::{chunk_rng, resolve_threads, run_chunks, update_chunk, CHUNK_SIZE};
use crate::protocol::{Protocol, ProtocolSpec, TieRule, UpdateContext};
use crate::schedule::Schedule;
use crate::stopping::{StopReason, StoppingCondition};
use crate::trace::Trace;

/// The chunk coordinate reserved for the asynchronous schedule's per-round
/// RNG stream.
///
/// A synchronous round is split into `CHUNK_SIZE` work units, chunk `c`
/// drawing from the `(master_seed, round, c)` stream.  An asynchronous round
/// is one sequential unit (each update may read the one before it), so it
/// draws everything — the order shuffle, the neighbour samples, the tie
/// coins — from the single `(master_seed, round, ASYNC_ROUND_CHUNK)` stream.
/// Real chunk indices are bounded by `n / CHUNK_SIZE`, so `u64::MAX` can
/// never collide with one.
pub const ASYNC_ROUND_CHUNK: u64 = u64::MAX;

/// Outcome of a single dynamics run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Why the run stopped.
    pub stop_reason: StopReason,
    /// Consensus winner, when consensus was reached.
    pub winner: Option<Opinion>,
    /// Number of rounds executed (round 0 is the initial configuration and
    /// is not counted).
    pub rounds: usize,
    /// Blue fraction of the initial configuration.
    pub initial_blue_fraction: f64,
    /// Blue fraction of the final configuration.
    pub final_blue_fraction: f64,
    /// The per-round trajectory (present when tracing was enabled).
    pub trace: Option<Trace>,
    /// What the adversary did, when one was configured
    /// ([`Engine::with_adversary`]); `None` on honest runs.
    pub adversary: Option<AdversaryCounters>,
}

impl RunResult {
    /// `true` when the run ended in consensus on red — the outcome Theorem 1
    /// predicts for the paper's parameter regime.
    pub fn red_won(&self) -> bool {
        self.winner == Some(Opinion::Red)
    }

    /// `true` when the run ended in consensus (on either colour).
    pub fn reached_consensus(&self) -> bool {
        self.winner.is_some()
    }
}

/// The one voting-dynamics engine: any [`Topology`], either [`Schedule`],
/// seeded or caller-RNG execution, sequential or multi-threaded.
///
/// The second type parameter is the attached [`Observer`]
/// ([`Engine::with_observer`]); it defaults to [`NoopObserver`], whose hooks
/// monomorphize to nothing — an unobserved engine compiles to exactly the
/// uninstrumented hot path.  Observers read a run, they never perturb it:
/// results are bit-identical with or without one (see [`crate::observe`]).
pub struct Engine<T: Topology, O: Observer = NoopObserver> {
    topo: T,
    schedule: Schedule,
    stopping: StoppingCondition,
    threads: usize,
    record_trace: bool,
    adversary: Option<Adversary>,
    observer: O,
}

impl<T: Topology> Engine<T> {
    /// Creates an engine over `topo` (owned or borrowed — `&T` is itself a
    /// topology) with the defaults: synchronous schedule, stop at consensus,
    /// single-threaded, no trace.
    ///
    /// Fails on the empty topology, and — when the topology is backed by a
    /// materialised graph — on isolated vertices, which could never perform
    /// an update.  Hash-defined implicit topologies cannot be checked
    /// without `Θ(n²)` work and instead panic from sampling if run outside
    /// their dense regime.
    pub fn new(topo: T) -> Result<Self> {
        if topo.n() == 0 {
            return Err(DynamicsError::InvalidGraph {
                reason: "cannot run dynamics on the empty topology".into(),
            });
        }
        if let Some(graph) = topo.as_graph() {
            graph.check_no_isolated_vertex()?;
        }
        Ok(Engine {
            topo,
            schedule: Schedule::default(),
            stopping: StoppingCondition::default(),
            threads: 1,
            record_trace: false,
            adversary: None,
            observer: NoopObserver,
        })
    }
}

impl<T: Topology, O: Observer> Engine<T, O> {
    /// Attaches an observer, replacing the current one (the default is the
    /// free [`NoopObserver`]).
    ///
    /// Observers receive read-only notifications — per-round and per-chunk
    /// progress/wall-time, the adversary tally, rejection-sampling effort —
    /// and are bound by the [`crate::observe`] contract: they never consume
    /// randomness or alter control flow, so the run's results are
    /// **bit-identical** with any observer attached, at any thread count, on
    /// either schedule.
    pub fn with_observer<O2: Observer>(self, observer: O2) -> Engine<T, O2> {
        Engine {
            topo: self.topo,
            schedule: self.schedule,
            stopping: self.stopping,
            threads: self.threads,
            record_trace: self.record_trace,
            adversary: self.adversary,
            observer,
        }
    }

    /// The attached observer (use after a run to read what it recorded).
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Sets the update schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the stopping condition.
    pub fn with_stopping(mut self, stopping: StoppingCondition) -> Self {
        self.stopping = stopping;
        self
    }

    /// Sets the worker thread count (`0` means "number of available CPUs").
    ///
    /// Only the synchronous seeded rounds fan out across workers; the result
    /// never depends on this — only the wall clock does.  (An asynchronous
    /// round is sequential by definition: each update may read the previous
    /// one.)
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = resolve_threads(threads);
        self
    }

    /// Enables or disables per-round trace recording.
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Attaches an adversary ([`crate::adversary`]) wrapping every update
    /// step: zealots, Byzantine reporters, message drop and block
    /// partitions, on either schedule.
    ///
    /// The adversary must have been built for this topology's vertex count
    /// (checked by the run entry points) and only applies to built-in
    /// protocol kernels — runs with a custom `dyn` protocol report a typed
    /// error.  Without this call the engine never touches the adversarial
    /// code paths, so honest runs are bit-identical to previous releases.
    pub fn with_adversary(mut self, adversary: Adversary) -> Self {
        self.adversary = Some(adversary);
        self
    }

    /// The configured adversary, if any.
    pub fn adversary(&self) -> Option<&Adversary> {
        self.adversary.as_ref()
    }

    /// The underlying topology.
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The configured update schedule.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// The configured stopping condition.
    pub fn stopping(&self) -> StoppingCondition {
        self.stopping
    }

    /// Number of worker threads in use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    // ------------------------------------------------------------------
    // Validation helpers
    // ------------------------------------------------------------------

    /// The rule `protocol` runs as, once every entry point's shared
    /// validation passes: the configuration has `n` opinions, one per
    /// vertex; any adversary fits the run ([`Engine::check_adversary`]); a
    /// kernel is affordable here ([`Engine::check_kind`]).  A protocol with
    /// a kernel runs it, any other the `dyn` loop over the materialised
    /// graph behind the topology — a typed error on adjacency-free
    /// topologies.
    fn rule<'a>(&'a self, n: usize, protocol: &'a dyn Protocol) -> Result<Rule<'a>> {
        if n != self.topo.n() {
            return Err(DynamicsError::OpinionLengthMismatch {
                got: n,
                expected: self.topo.n(),
            });
        }
        let kind = protocol.kind();
        self.check_adversary(kind.is_some())?;
        if let Some(kind) = kind {
            self.check_kind(kind)?;
            return Ok(Rule::Kernel(kind));
        }
        let graph = self
            .topo
            .as_graph()
            .ok_or_else(|| DynamicsError::InvalidParameter {
                reason: format!(
                    "custom protocols read materialised neighbour rows through UpdateContext, \
                     which {} (an adjacency-free topology) cannot provide; use a built-in \
                     protocol or a materialised graph",
                    self.topo.label()
                ),
            })?;
        Ok(Rule::Dyn(protocol, graph))
    }

    /// [`Engine::rule`] for the step entry points, which return `()` and so
    /// panic with the error's message where the run entry points return it.
    fn step_rule<'a>(&'a self, n: usize, protocol: &'a dyn Protocol) -> Rule<'a> {
        self.rule(n, protocol).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Refuses, with a typed error, a Best-of-k sample size outside
    /// `1..=`[`MAX_BEST_OF_K`], and local majority past
    /// [`bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT`] (the graph-side
    /// `GraphError::TooLarge` policy) unless its rows stay cheap: bounded
    /// by the stored edges on [`Shape::Csr`], a popcount on an honest
    /// [`Shape::Complete`].  Every other shape walks `Θ(n)` per vertex.
    fn check_kind(&self, kind: ProtocolSpec) -> Result<()> {
        if let ProtocolSpec::BestOfK { k, .. } = kind {
            if !(1..=MAX_BEST_OF_K).contains(&k) {
                return Err(DynamicsError::InvalidParameter {
                    reason: format!("best-of-k needs k in 1..={MAX_BEST_OF_K}, got k = {k}"),
                });
            }
        }
        let bounded_rows = match self.topo.shape() {
            Shape::Csr(_) => true,
            Shape::Complete(..) => self.adversary.is_none(),
            _ => false,
        };
        if matches!(kind, ProtocolSpec::LocalMajority { .. })
            && !bounded_rows
            && self.topo.n() > bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT
        {
            return Err(DynamicsError::InvalidParameter {
                reason: format!(
                    "local majority on {} walks Theta(n)-long rows per vertex; refusing beyond \
                     {} vertices (it runs at any size on materialised graphs and the honest \
                     complete graph)",
                    self.topo.label(),
                    bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT
                ),
            });
        }
        Ok(())
    }

    /// Checks that a configured adversary fits this run: it must have been
    /// compiled for this topology's vertex count, and it wraps only the
    /// built-in protocol kernels (a custom `dyn` protocol has no kernel to
    /// wrap, so the combination is a typed error rather than a silently
    /// honest run).
    fn check_adversary(&self, kernel: bool) -> Result<()> {
        let Some(adv) = &self.adversary else {
            return Ok(());
        };
        if adv.n() != self.topo.n() {
            return Err(DynamicsError::InvalidParameter {
                reason: format!(
                    "adversary was built for n = {} but the topology has {} vertices",
                    adv.n(),
                    self.topo.n()
                ),
            });
        }
        if !kernel {
            return Err(DynamicsError::InvalidParameter {
                reason: "adversaries wrap the built-in protocol kernels; custom dyn protocols \
                         are not supported — use a ProtocolSpec"
                    .into(),
            });
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The round function and the driver
    // ------------------------------------------------------------------

    /// The one round function behind every step and run: applies one round
    /// of `rule` to `state` (whose variant is the schedule), drawing from
    /// `draws`, then reports the round's index, update count and wall time
    /// to the observer.
    ///
    /// `round` selects the seeded streams and feeds the adversary
    /// (partition windows, drop coins); `dropped` accumulates its drop
    /// tally.  The routes:
    ///
    /// * a synchronous kernel round runs [`Engine::kernel_unit`] over
    ///   chunks of the next state's words: once over the whole range on the
    ///   caller's RNG, which stays on the strict scalar sampler, or once per
    ///   `CHUNK_SIZE` chunk across the worker pool, each chunk on its own
    ///   concrete [`kernel::KernelRng`] — bit-identical at any thread count;
    /// * a synchronous `dyn` round runs the per-vertex protocol loop, seeded
    ///   rounds on the ChaCha8 [`chunk_rng`] streams the fallback has
    ///   always used;
    /// * an asynchronous round shuffles a fresh order and sweeps it over the
    ///   live snapshot on one sequential stream: the caller's, or the
    ///   round's `(master_seed, round, ASYNC_ROUND_CHUNK)` stream, which a
    ///   kernel round again gets as a concrete [`kernel::KernelRng`] and
    ///   sweeps as one [`Engine::kernel_unit`].  Only that seeded kernel
    ///   stream is scoped to the round, which is the licence the draw-ahead
    ///   lane needs (see `bo3_graph::topology`).
    fn round(
        &self,
        rule: Rule<'_>,
        draws: Draws<'_>,
        state: RoundState<'_>,
        round: u64,
        dropped: &AtomicU64,
    ) {
        let timer = maybe_now(&self.observer);
        let updates = match state {
            RoundState::Sync { snap, next } => {
                let out = next.words_mut();
                match (rule, draws) {
                    (Rule::Kernel(kind), Draws::Caller(rng)) => {
                        let (start, at) = (0, self.unit(round, None, 0, dropped));
                        self.kernel_unit(kind, &mut Sweep::Chunk { snap, start, out }, at, rng);
                    }
                    (Rule::Kernel(kind), Draws::Seeded(seed)) => {
                        run_chunks(self.threads, out, &|chunk, start, out| {
                            let timer = maybe_now(&self.observer);
                            let rng = kernel::kernel_chunk_rng(seed, round, chunk);
                            let at = self.unit(round, Some(seed), chunk, dropped);
                            self.kernel_unit(kind, &mut Sweep::Chunk { snap, start, out }, at, rng);
                            if let Some(t0) = timer {
                                let vertices = (snap.len() - start).min(CHUNK_SIZE) as u64;
                                let wall_ns = t0.elapsed().as_nanos() as u64;
                                self.observer.on_chunk(chunk, vertices, wall_ns);
                            }
                        });
                    }
                    (Rule::Dyn(protocol, graph), Draws::Caller(rng)) => {
                        update_chunk(protocol, graph, snap, 0, out, rng);
                    }
                    (Rule::Dyn(protocol, graph), Draws::Seeded(seed)) => {
                        run_chunks(self.threads, out, &|chunk, start, out| {
                            let mut rng = chunk_rng(seed, round, chunk);
                            update_chunk(protocol, graph, snap, start, out, &mut rng);
                        });
                    }
                }
                snap.len()
            }
            RoundState::Async { live, order } => {
                match (rule, draws) {
                    (Rule::Kernel(kind), Draws::Caller(rng)) => {
                        let at = self.unit(round, None, ASYNC_ROUND_CHUNK, dropped);
                        shuffle(order, live.len(), rng);
                        self.kernel_unit(kind, &mut Sweep::Order { order, live }, at, rng);
                    }
                    (Rule::Kernel(kind), Draws::Seeded(seed)) => {
                        let mut rng = kernel::kernel_chunk_rng(seed, round, ASYNC_ROUND_CHUNK);
                        let at = self.unit(round, Some(seed), ASYNC_ROUND_CHUNK, dropped);
                        shuffle(order, live.len(), &mut rng);
                        self.kernel_unit(kind, &mut Sweep::Order { order, live }, at, rng);
                    }
                    (Rule::Dyn(protocol, graph), Draws::Caller(rng)) => {
                        self.async_dyn_round(protocol, graph, live, order, rng)
                    }
                    (Rule::Dyn(protocol, graph), Draws::Seeded(seed)) => {
                        let mut rng = chunk_rng(seed, round, ASYNC_ROUND_CHUNK);
                        self.async_dyn_round(protocol, graph, live, order, &mut rng)
                    }
                }
                live.len()
            }
        };
        if let Some(t0) = timer {
            self.observer
                .on_round(round, updates as u64, t0.elapsed().as_nanos() as u64);
        }
    }

    /// The one budgeted driver behind every run entry point: applies
    /// [`Engine::round`] under the configured schedule until the stopping
    /// condition or the budget fires, recording the trace.
    ///
    /// The stopping condition is checked before the budget at each round
    /// boundary — these are the yield points — so a run whose condition
    /// fires within the slice completes rather than pausing, and a pause
    /// never observes a half-applied round.  A completed run carries the
    /// adversary's tally; a paused one is captured as a [`RunCheckpoint`],
    /// which only seeded kernel runs can be (the other flavours are driven
    /// with an unlimited budget).
    fn drive(
        &self,
        rule: Rule<'_>,
        mut draws: Draws<'_>,
        mut run: RunState,
        budget: &RunBudget,
    ) -> RunOutcome {
        let dropped = AtomicU64::new(run.dropped);
        let n = run.state.len();
        // A synchronous round writes `next`, then the two swap; an
        // asynchronous round flips bits of the state along `order`.
        let sync = self.schedule == Schedule::Synchronous;
        let mut next = PackedSnapshot::all_red(if sync { n } else { 0 });
        let mut order = Vec::new();
        let mut blue = run.state.blue_count();
        let mut slice_rounds = 0usize;
        loop {
            if let Some(reason) = self.stopping.stop_at(blue, n, run.rounds) {
                let adversary = self.adversary.as_ref().map(|adv| {
                    let counters = adv.counters(run.rounds, dropped.load(Ordering::Relaxed));
                    self.observer.on_adversary(&counters);
                    counters
                });
                return RunOutcome::Completed(RunResult {
                    stop_reason: reason,
                    winner: reason.winner(),
                    rounds: run.rounds,
                    initial_blue_fraction: run.initial_blue_fraction,
                    final_blue_fraction: blue_fraction(blue, n),
                    trace: run.trace,
                    adversary,
                });
            }
            if budget.should_pause(slice_rounds) {
                let (Rule::Kernel(protocol), Draws::Seeded(master_seed)) = (rule, draws) else {
                    unreachable!("only seeded kernel runs are driven under a pausing budget");
                };
                return RunOutcome::Paused(Box::new(RunCheckpoint {
                    version: RUN_CHECKPOINT_VERSION,
                    protocol,
                    schedule: self.schedule,
                    stopping: self.stopping,
                    master_seed,
                    round: run.rounds,
                    n,
                    opinion_words: run.state.words().to_vec(),
                    initial_blue_fraction: run.initial_blue_fraction,
                    dropped_samples: dropped.load(Ordering::Relaxed),
                    trace: run.trace,
                }));
            }
            let round = run.rounds as u64;
            let state = if sync {
                RoundState::Sync {
                    snap: &run.state,
                    next: &mut next,
                }
            } else {
                RoundState::Async {
                    live: &mut run.state,
                    order: &mut order,
                }
            };
            self.round(rule, draws.reborrow(), state, round, &dropped);
            if sync {
                std::mem::swap(&mut run.state, &mut next);
            }
            run.rounds += 1;
            slice_rounds += 1;
            blue = run.state.blue_count();
            if let Some(trace) = run.trace.as_mut() {
                trace.record_counted(run.rounds, blue, n);
            }
        }
    }

    // ------------------------------------------------------------------
    // Kernel routing
    // ------------------------------------------------------------------

    /// One kernel work unit of `kind` — a synchronous chunk or an
    /// asynchronous round.  Its one match on the protocol picks the rule;
    /// its sampler totals go to the observer once, at its end.
    fn kernel_unit<R: RngCore>(
        &self,
        kind: ProtocolSpec,
        sweep: &mut Sweep<'_>,
        at: Unit<'_>,
        rng: R,
    ) {
        let work = match kind {
            ProtocolSpec::Voter => self.route(Fixed::<1>, sweep, at, rng),
            ProtocolSpec::BestOfThree => self.route(Fixed::<3>, sweep, at, rng),
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::KeepOwn,
            } => self.route(Pure { k: 2 }, sweep, at, rng),
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random,
            } => self.route(Coin { k: 2 }, sweep, at, rng),
            ProtocolSpec::BestOfK { k, tie_rule } if k % 2 == 1 || tie_rule == TieRule::KeepOwn => {
                self.route(Pure { k }, sweep, at, rng)
            }
            ProtocolSpec::BestOfK { k, .. } => self.route(Coin { k }, sweep, at, rng),
            ProtocolSpec::LocalMajority { tie_rule } => self.route(Local(tie_rule), sweep, at, rng),
        };
        match self.observer.sampler_meter() {
            Some(meter) if work.drawn > 0 => {
                meter.record_lane(work.tries, work.accepts, work.drawn)
            }
            Some(meter) => meter.record(work.tries, work.accepts),
            None => {}
        }
    }

    /// Sweeps one unit of `rule` over the source its family calls for —
    /// the unit's one match on the topology's [`Shape`] (see the module
    /// docs) — and returns its sampler totals: derived on the closed-form
    /// and CSR routes (one `next_u64` per sample), the lane's own counters
    /// on the lane, counted by a [`kernel::CountingRng`] on the sampler
    /// over a hash-defined or opaque topology.  On [`Shape::Csr`]:
    ///
    /// * an honest unit of a pure rule runs [`kernel::gather`], whatever
    ///   its sweep: synchronous chunks and asynchronous rounds share its
    ///   draw and gather phases;
    /// * a coin rule, local majority or an adversarial unit samples through
    ///   [`CsrTopology`].
    ///
    /// The sweeps themselves run in the free functions [`hashed`] and
    /// [`sample`] and in the gather, compiled once per rule, family and RNG
    /// type; this match is all that is compiled per topology and observer
    /// type, and it folds to one arm where the topology's shape is fixed.
    fn route<U: UpdateRule, R: RngCore>(
        &self,
        rule: U,
        sweep: &mut Sweep<'_>,
        at: Unit<'_>,
        mut rng: R,
    ) -> SamplerWork {
        let samples = rule.samples();
        let exact = |updated| SamplerWork::exact(samples, updated);
        match self.topo.shape() {
            Shape::Complete(f, _) => exact(sample(rule, sweep, f, true, at, rng)),
            Shape::CompleteBipartite(f) => exact(sample(rule, sweep, *f, false, at, rng)),
            Shape::CompleteMultipartite(f) => exact(sample(rule, sweep, f, false, at, rng)),
            Shape::ImplicitGnp(f) => hashed(rule, sweep, *f, f.pair_hash_spec(), at, rng),
            Shape::ImplicitSbm(f) => hashed(rule, sweep, *f, f.pair_hash_spec(), at, rng),
            Shape::Csr(graph) => exact(if U::PURE && at.adversary.is_none() {
                kernel::gather(rule, graph, sweep, rng)
            } else {
                sample(rule, sweep, CsrTopology::new(graph), false, at, rng)
            }),
            Shape::Opaque => SamplerWork::counted(samples, &mut rng, |rng| {
                sample(rule, sweep, &self.topo, false, at, rng)
            }),
        }
    }

    /// Where a kernel work unit of `round` sits: see [`Unit`].
    fn unit<'u>(
        &'u self,
        round: u64,
        seed: Option<u64>,
        chunk: u64,
        dropped: &'u AtomicU64,
    ) -> Unit<'u> {
        Unit {
            round,
            seed,
            chunk,
            dropped,
            adversary: self.adversary.as_ref(),
        }
    }

    /// One asynchronous round of a custom protocol: shuffles the order and
    /// updates each vertex in it through [`Protocol::update`], reading the
    /// live snapshot and the rows of `graph`.
    fn async_dyn_round(
        &self,
        protocol: &dyn Protocol,
        graph: &CsrGraph,
        live: &mut PackedSnapshot,
        order: &mut Vec<usize>,
        rng: &mut dyn RngCore,
    ) {
        assert!(
            self.adversary.is_none(),
            "adversaries wrap the built-in protocol kernels; custom dyn protocols are not \
             supported (the run entry points report this as a typed error)"
        );
        shuffle(order, live.len(), rng);
        for &v in order.iter() {
            let ctx = UpdateContext {
                vertex: v,
                current: live.get(v),
                previous: live,
                graph,
            };
            let new_opinion = protocol.update(&ctx, rng);
            live.set(v, new_opinion);
        }
    }

    // ------------------------------------------------------------------
    // Public single-step entry points
    // ------------------------------------------------------------------

    /// Performs one caller-RNG synchronous round: reads `current`, writes
    /// the next opinions into `next` (which is cleared and refilled).
    ///
    /// Built-in protocols ([`Protocol::kind`] returns `Some`) run through
    /// the monomorphized kernels over a bit-packed snapshot; custom
    /// protocols use the generic `dyn` loop, which needs a materialised
    /// graph behind the topology.  Both paths consume `rng` identically, so
    /// the choice is invisible in the output.  The observer sees the step
    /// as round 0: a caller-RNG step has no round index.
    ///
    /// Every step entry point checks its arguments as the run entry points
    /// do, and panics with the message of the error a run would return: a
    /// configuration whose length is not the vertex count, a Best-of-k `k`
    /// outside `1..=`[`MAX_BEST_OF_K`], a custom protocol on an
    /// adjacency-free topology, and the rest of [`Engine::run`]'s errors.
    pub fn step_synchronous(
        &self,
        protocol: &dyn Protocol,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        rng: &mut dyn RngCore,
    ) {
        let rule = self.step_rule(current.len(), protocol);
        self.step_sync(rule, Draws::Caller(rng), current, next, 0);
    }

    /// Performs one caller-RNG asynchronous round on the live configuration
    /// (see the module docs); panics on bad arguments like
    /// [`Engine::step_synchronous`].
    ///
    /// The round runs on `config` packed into the caller-held `scratch`,
    /// which also holds the shuffled order; both are reused across rounds,
    /// and `config` takes the result back.  Buffer reuse never changes the
    /// output — each round refills the order with the identity permutation
    /// before shuffling, so the permutation stream is exactly a fresh
    /// allocation's (the schedule-matrix suite pins this bit-identical).
    pub fn step_asynchronous_with(
        &self,
        protocol: &dyn Protocol,
        config: &mut Configuration,
        scratch: &mut AsyncScratch,
        rng: &mut dyn RngCore,
    ) {
        let rule = self.step_rule(config.len(), protocol);
        scratch.live.repack_from(config.as_slice());
        let state = RoundState::Async {
            live: &mut scratch.live,
            order: &mut scratch.order,
        };
        self.round(rule, Draws::Caller(rng), state, 0, &AtomicU64::new(0));
        for (v, opinion) in scratch.live.opinions().enumerate() {
            config.set(v, opinion);
        }
    }

    /// Performs synchronous round `round` with the seeded
    /// `(master_seed, round, chunk)` RNG derivation (kernel streams for
    /// built-in protocols, ChaCha8 streams for the `dyn` fallback), across
    /// the configured worker pool; panics on bad arguments like
    /// [`Engine::step_synchronous`].
    pub fn step_seeded(
        &self,
        protocol: &dyn Protocol,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        master_seed: u64,
        round: u64,
    ) {
        let rule = self.step_rule(current.len(), protocol);
        self.step_sync(rule, Draws::Seeded(master_seed), current, next, round);
    }

    /// [`Engine::step_seeded`] with the spec passed by value.  Only
    /// perfbench still calls it; remove it at the next change to the
    /// benchmark.
    pub fn step_seeded_kind(
        &self,
        spec: ProtocolSpec,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        master_seed: u64,
        round: u64,
    ) {
        self.step_seeded(&spec, current, next, master_seed, round)
    }

    /// A synchronous step entry point's round: `rule` from `current` into
    /// `next` (cleared and refilled) as round `round`, on `current` packed
    /// into a fresh snapshot and a throwaway drop tally.
    fn step_sync(
        &self,
        rule: Rule<'_>,
        draws: Draws<'_>,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        round: u64,
    ) {
        let snap = &PackedSnapshot::from_opinions(current.as_slice());
        let out = &mut PackedSnapshot::all_red(snap.len());
        let state = RoundState::Sync { snap, next: out };
        self.round(rule, draws, state, round, &AtomicU64::new(0));
        next.clear();
        next.extend(out.opinions());
    }

    // ------------------------------------------------------------------
    // Runners
    // ------------------------------------------------------------------

    /// Runs the dynamics from `initial` until the stopping condition fires,
    /// with every draw taken from the caller's `rng` (both schedules;
    /// sequential — seeded execution is what fans out across threads).
    pub fn run(
        &self,
        protocol: &dyn Protocol,
        initial: Configuration,
        rng: &mut dyn RngCore,
    ) -> Result<RunResult> {
        let unlimited = &RunBudget::unlimited();
        self.start(protocol, initial, Draws::Caller(rng), unlimited)
            .map(to_end)
    }

    /// Runs the dynamics with all randomness derived from `master_seed`.
    ///
    /// Synchronous runs derive one RNG per `(master_seed, round, chunk)`
    /// work unit and are **bit-for-bit identical at any thread count**;
    /// asynchronous runs derive one RNG per round (chunk coordinate
    /// [`ASYNC_ROUND_CHUNK`]) and execute sequentially, so the same property
    /// holds trivially.  See [`Schedule`] for the full determinism
    /// semantics.
    pub fn run_seeded(
        &self,
        protocol: &dyn Protocol,
        initial: Configuration,
        master_seed: u64,
    ) -> Result<RunResult> {
        let unlimited = &RunBudget::unlimited();
        self.start(protocol, initial, Draws::Seeded(master_seed), unlimited)
            .map(to_end)
    }

    /// [`Engine::run_seeded`] under a [`RunBudget`]: the run yields at the
    /// round boundary where the budget first fires and hands back a
    /// [`RunCheckpoint`]; [`Engine::resume`] continues it **bit-identically**
    /// to an uninterrupted run, on either schedule, at any thread count (see
    /// [`crate::checkpoint`] for why the checkpoint needs no RNG state).
    /// The protocol is a [`ProtocolSpec`] because a checkpoint records the
    /// built-in rule it runs.
    pub fn run_seeded_kind_budgeted(
        &self,
        spec: ProtocolSpec,
        initial: Configuration,
        master_seed: u64,
        budget: &RunBudget,
    ) -> Result<RunOutcome> {
        self.start(&spec, initial, Draws::Seeded(master_seed), budget)
    }

    /// A fresh run of `protocol` from `initial`, validated
    /// ([`Engine::rule`]) and driven under `budget`.
    fn start(
        &self,
        protocol: &dyn Protocol,
        initial: Configuration,
        draws: Draws<'_>,
        budget: &RunBudget,
    ) -> Result<RunOutcome> {
        let rule = self.rule(initial.len(), protocol)?;
        let run = RunState::fresh(initial, self.record_trace);
        Ok(self.drive(rule, draws, run, budget))
    }

    /// Continues a paused seeded run from its checkpoint, under a new
    /// budget (pass [`RunBudget::unlimited`] to run it to completion).  The
    /// engine must be configured identically to the one that produced the
    /// checkpoint (same topology size, schedule, stopping condition and
    /// trace flag) — mismatches are typed errors, never silent divergence.
    /// The thread count is free to differ: seeded rounds are bit-identical
    /// at any thread count.
    pub fn resume(&self, checkpoint: &RunCheckpoint, budget: &RunBudget) -> Result<RunOutcome> {
        let bad = |reason: String| DynamicsError::InvalidParameter { reason };
        if checkpoint.version != RUN_CHECKPOINT_VERSION {
            return Err(bad(format!(
                "checkpoint version {} is not the supported version {RUN_CHECKPOINT_VERSION}",
                checkpoint.version
            )));
        }
        if checkpoint.n != self.topo.n() {
            return Err(bad(format!(
                "checkpoint was taken at n = {} but the topology has {} vertices",
                checkpoint.n,
                self.topo.n()
            )));
        }
        if checkpoint.schedule != self.schedule {
            return Err(bad(format!(
                "checkpoint was taken under the {} schedule but the engine runs {}",
                checkpoint.schedule.label(),
                self.schedule.label()
            )));
        }
        if checkpoint.stopping != self.stopping {
            return Err(bad(
                "checkpoint stopping condition differs from the engine's".into(),
            ));
        }
        if checkpoint.trace.is_some() != self.record_trace {
            return Err(bad(format!(
                "checkpoint {} a partial trace but the engine has tracing {}",
                if checkpoint.trace.is_some() {
                    "carries"
                } else {
                    "lacks"
                },
                if self.record_trace { "on" } else { "off" }
            )));
        }
        let rule = self.rule(checkpoint.n, &checkpoint.protocol)?;
        let state = PackedSnapshot::from_words(checkpoint.opinion_words.clone(), checkpoint.n)?;
        if let Some(trace) = &checkpoint.trace {
            let blue = state.blue_count();
            let ends_here = trace.last().is_some_and(|last| {
                last.round == checkpoint.round
                    && last.blue_count == blue
                    && last.red_count == checkpoint.n - blue
            });
            if trace.len().checked_sub(1) != Some(checkpoint.round) || !ends_here {
                return Err(bad(format!(
                    "checkpoint trace holds {} records and does not end at round {} with the \
                     opinion words' {blue} blue vertices",
                    trace.len(),
                    checkpoint.round
                )));
            }
        }
        let run = RunState {
            state,
            rounds: checkpoint.round,
            trace: checkpoint.trace.clone(),
            initial_blue_fraction: checkpoint.initial_blue_fraction,
            dropped: checkpoint.dropped_samples,
        };
        Ok(self.drive(rule, Draws::Seeded(checkpoint.master_seed), run, budget))
    }
}

/// Creates an engine over a borrowed materialised graph — shorthand for
/// `Engine::new(CsrTopology::new(graph))`.
impl<'g> Engine<CsrTopology<'g>> {
    /// See [`Engine::new`]; fails on empty graphs and isolated vertices.
    pub fn on_graph(graph: &'g CsrGraph) -> Result<Self> {
        Engine::new(CsrTopology::new(graph))
    }
}

impl<'g, O: Observer> Engine<CsrTopology<'g>, O> {
    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.topology().graph()
    }
}

/// What a round applies.
#[derive(Clone, Copy)]
enum Rule<'a> {
    /// A built-in protocol's monomorphized kernel.
    Kernel(ProtocolSpec),
    /// A custom protocol, reading the rows of the materialised graph.
    Dyn(&'a dyn Protocol, &'a CsrGraph),
}

/// Where a round's randomness comes from.
enum Draws<'r> {
    /// The caller's RNG, consumed over the whole vertex range in order.
    Caller(&'r mut dyn RngCore),
    /// Streams derived per `(master_seed, round, chunk)` work unit.
    Seeded(u64),
}

impl Draws<'_> {
    /// The same source, lent to one round.
    fn reborrow(&mut self) -> Draws<'_> {
        match self {
            Draws::Caller(rng) => Draws::Caller(&mut **rng),
            Draws::Seeded(seed) => Draws::Seeded(*seed),
        }
    }
}

/// The state a round reads and writes; the variant is the schedule.
enum RoundState<'s> {
    /// Reads `snap` and writes every word of `next`, its equal in size.
    Sync {
        snap: &'s PackedSnapshot,
        next: &'s mut PackedSnapshot,
    },
    /// Updates `live` in place along a fresh order shuffled into `order`.
    Async {
        live: &'s mut PackedSnapshot,
        order: &'s mut Vec<usize>,
    },
}

/// Where a kernel work unit sits in its run: its round, the master seed
/// of a seeded unit (`None` on a caller-RNG round), its chunk coordinate
/// ([`ASYNC_ROUND_CHUNK`] for an asynchronous round), the run's adversary
/// drop tally and the adversary, if any.  Seed (0 without one) and chunk
/// place the unit's adversary stream.
#[derive(Clone, Copy)]
struct Unit<'d> {
    round: u64,
    seed: Option<u64>,
    chunk: u64,
    dropped: &'d AtomicU64,
    adversary: Option<&'d Adversary>,
}

/// A hash-defined family's unit: the draw-ahead lane for a pure rule on an
/// honest seeded unit — whose RNG is one fresh stream per work unit,
/// dropped at its end, the licence the lane's discarded pre-draw tail
/// needs — and the counted scalar sampler otherwise.
fn hashed<U: UpdateRule, F: Topology, R: RngCore>(
    rule: U,
    sweep: &mut Sweep<'_>,
    family: F,
    spec: PairHashSpec,
    at: Unit<'_>,
    mut rng: R,
) -> SamplerWork {
    if U::PURE && at.seed.is_some() && at.adversary.is_none() {
        let mut lane = NeighbourLane::new(spec);
        let updated = sweep.run(rule, &mut lane, rng);
        return SamplerWork::lane(&lane, rule.samples() * updated);
    }
    SamplerWork::counted(rule.samples(), &mut rng, |rng| {
        sample(rule, sweep, family, false, at, rng)
    })
}

/// Sweeps one unit with the sampler over `family` (`complete`: the family
/// is the complete graph) — or, with an adversary attached, with the
/// adversary over it, whose drop tally is flushed once, at the unit's end.
/// Returns how many vertices updated.
fn sample<U: UpdateRule, F: Topology, R: RngCore>(
    rule: U,
    sweep: &mut Sweep<'_>,
    family: F,
    complete: bool,
    at: Unit<'_>,
    rng: R,
) -> usize {
    let Some(adv) = at.adversary else {
        return sweep.run(rule, &mut Sampler { family, complete }, rng);
    };
    let stream = (at.seed.unwrap_or(0), at.chunk);
    let mut source = Adversarial::new(adv, family, at.round, stream);
    let updated = sweep.run(rule, &mut source, rng);
    source.flush(at.dropped);
    updated
}

/// A run in flight: what [`Engine::drive`] carries from round to round, and
/// what a [`RunCheckpoint`] captures.
struct RunState {
    state: PackedSnapshot,
    rounds: usize,
    trace: Option<Trace>,
    initial_blue_fraction: f64,
    /// The adversary's drop tally so far.
    dropped: u64,
}

impl RunState {
    /// Round 0 of a fresh run (records the trace's round 0 when tracing).
    fn fresh(initial: Configuration, record_trace: bool) -> Self {
        let trace = record_trace.then(|| {
            let mut trace = Trace::new();
            trace.record(0, &initial);
            trace
        });
        RunState {
            initial_blue_fraction: initial.blue_fraction(),
            state: PackedSnapshot::from_opinions(initial.as_slice()),
            rounds: 0,
            trace,
            dropped: 0,
        }
    }
}

/// The result of a run driven under an unlimited budget.
fn to_end(outcome: RunOutcome) -> RunResult {
    outcome
        .completed()
        .expect("an unlimited budget never pauses")
}

/// Caller-held scratch buffers for repeated asynchronous stepping: the
/// shuffled vertex order and the packed state, reused across rounds by
/// [`Engine::step_asynchronous_with`] instead of re-allocated per call.
///
/// Reuse is purely an allocation optimisation — each round refills the order
/// buffer with the identity permutation before shuffling, so the results are
/// bit-identical to fresh buffers.
pub struct AsyncScratch {
    order: Vec<usize>,
    live: PackedSnapshot,
}

impl AsyncScratch {
    /// Creates empty scratch; the first round sizes the buffers.
    pub fn new() -> Self {
        AsyncScratch {
            order: Vec::new(),
            live: PackedSnapshot::all_red(0),
        }
    }
}

/// Draws a round's update order into `order`: the identity permutation of
/// `0..n`, shuffled with `rng`.  The buffer's allocation is reused across
/// rounds, but its *contents* must be the identity before each shuffle —
/// shuffling last round's order instead would change the pinned seeded
/// permutation.
fn shuffle<R: RngCore + ?Sized>(order: &mut Vec<usize>, n: usize, rng: &mut R) {
    order.clear();
    order.extend(0..n);
    order.shuffle(rng);
}

impl Default for AsyncScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitialCondition;
    use bo3_graph::{
        generators, Complete, CompleteBipartite, CompleteMultipartite, ImplicitGnp, ImplicitSbm,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_graph_and_isolated_vertices() {
        let empty = bo3_graph::GraphBuilder::new(0).build().unwrap();
        assert!(Engine::on_graph(&empty).is_err());
        let iso = bo3_graph::GraphBuilder::new(3)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        let isolated = bo3_graph::GraphError::IsolatedVertex { vertex: 2 };
        assert_eq!(Engine::on_graph(&iso).err(), Some(isolated.clone().into()));
        let built = bo3_graph::BuiltTopology::Materialised(iso);
        assert_eq!(Engine::new(&built).err(), Some(isolated.into()));
    }

    #[test]
    fn rejects_mismatched_initial_configuration() {
        let g = generators::complete(5);
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let bad = Configuration::all_red(3);
        assert!(matches!(
            sim.run(&ProtocolSpec::BestOfThree, bad, &mut rng),
            Err(DynamicsError::OpinionLengthMismatch {
                got: 3,
                expected: 5
            })
        ));
    }

    #[test]
    fn consensus_initial_state_stops_immediately() {
        let g = generators::complete(8);
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let res = sim
            .run(
                &ProtocolSpec::BestOfThree,
                Configuration::all_red(8),
                &mut rng,
            )
            .unwrap();
        assert_eq!(res.rounds, 0);
        assert!(res.red_won());
        assert!(res.reached_consensus());
        assert_eq!(res.final_blue_fraction, 0.0);
    }

    #[test]
    fn best_of_three_reaches_red_consensus_on_dense_graph() {
        let g = generators::complete(400);
        let sim = Engine::on_graph(&g).unwrap().with_trace(true);
        let mut rng = StdRng::seed_from_u64(2);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(&ProtocolSpec::BestOfThree, init, &mut rng).unwrap();
        assert!(res.red_won(), "stop reason {:?}", res.stop_reason);
        assert!(res.rounds <= 30, "took {} rounds", res.rounds);
        let trace = res.trace.as_ref().unwrap();
        assert_eq!(trace.len(), res.rounds + 1);
        // The blue fraction is (weakly) shrinking over most of the run.
        let fr = trace.blue_fractions();
        assert!(fr.first().unwrap() > fr.last().unwrap());
    }

    #[test]
    fn blue_majority_start_gives_blue_consensus() {
        let g = generators::complete(300);
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let init = InitialCondition::Bernoulli {
            blue_probability: 0.7,
        }
        .sample(&g, &mut rng)
        .unwrap();
        let res = sim.run(&ProtocolSpec::BestOfThree, init, &mut rng).unwrap();
        assert_eq!(res.winner, Some(Opinion::Blue));
    }

    #[test]
    fn fixed_round_budget_is_respected() {
        let g = generators::complete(100);
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(4))
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(4);
        let init = InitialCondition::ExactCount { blue: 50 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(&ProtocolSpec::BestOfThree, init, &mut rng).unwrap();
        assert_eq!(res.rounds, 4);
        assert_eq!(res.stop_reason, StopReason::RoundLimit);
        assert_eq!(res.trace.unwrap().len(), 5);
    }

    #[test]
    fn voter_model_is_much_slower_than_best_of_three() {
        let g = generators::complete(150);
        let mut rng = StdRng::seed_from_u64(5);
        let init = InitialCondition::ExactCount { blue: 60 }
            .sample(&g, &mut rng)
            .unwrap();

        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_stopping(StoppingCondition::consensus_within(100_000));
        let bo3 = sim
            .run(&ProtocolSpec::BestOfThree, init.clone(), &mut rng)
            .unwrap();
        let voter = sim.run(&ProtocolSpec::Voter, init, &mut rng).unwrap();
        assert!(bo3.reached_consensus());
        assert!(voter.reached_consensus());
        assert!(
            voter.rounds > 3 * bo3.rounds,
            "voter {} rounds vs best-of-3 {}",
            voter.rounds,
            bo3.rounds
        );
    }

    #[test]
    fn local_majority_converges_in_one_round_on_complete_graph() {
        let g = generators::complete(101);
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let init = InitialCondition::ExactCount { blue: 30 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim
            .run(
                &ProtocolSpec::LocalMajority {
                    tie_rule: TieRule::KeepOwn,
                },
                init,
                &mut rng,
            )
            .unwrap();
        assert!(res.red_won());
        assert_eq!(res.rounds, 1);
    }

    #[test]
    fn asynchronous_schedule_also_converges() {
        let g = generators::complete(200);
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder);
        let mut rng = StdRng::seed_from_u64(7);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(&ProtocolSpec::BestOfThree, init, &mut rng).unwrap();
        assert!(res.reached_consensus());
        assert!(res.red_won());
    }

    #[test]
    fn synchronous_step_reads_only_the_snapshot() {
        // On a 2-colourable structure, a synchronous local-majority update of
        // an alternating colouring swaps the colours (period-2 oscillation),
        // which is only possible if every vertex reads the *old* snapshot.
        let g = generators::complete_bipartite(5, 5).unwrap();
        let sim = Engine::on_graph(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        // Left side blue, right side red.
        let opinions: Vec<Opinion> = (0..10)
            .map(|v| if v < 5 { Opinion::Blue } else { Opinion::Red })
            .collect();
        let cfg = Configuration::new(opinions);
        let mut next = Vec::new();
        sim.step_synchronous(
            &ProtocolSpec::LocalMajority {
                tie_rule: TieRule::KeepOwn,
            },
            &cfg,
            &mut next,
            &mut rng,
        );
        // Every left vertex sees only red neighbours and vice versa.
        assert!(next[..5].iter().all(|&o| o == Opinion::Red));
        assert!(next[5..].iter().all(|&o| o == Opinion::Blue));
    }

    #[test]
    fn blue_extinction_stopping_is_honoured() {
        let g = generators::complete(500);
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_stopping(StoppingCondition::blue_extinction(1_000, 0.05));
        let mut rng = StdRng::seed_from_u64(9);
        let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(&ProtocolSpec::BestOfThree, init, &mut rng).unwrap();
        assert!(res.final_blue_fraction <= 0.05);
    }

    #[test]
    fn run_seeded_supports_the_asynchronous_schedule() {
        // Historically `run_seeded` rejected the asynchronous schedule; the
        // unified engine runs it, reproducibly, on materialised graphs...
        let g = generators::complete(300);
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(10);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample(&g, &mut rng)
            .unwrap();
        let a = sim
            .run_seeded(&ProtocolSpec::BestOfThree, init.clone(), 5)
            .unwrap();
        let b = sim.run_seeded(&ProtocolSpec::BestOfThree, init, 5).unwrap();
        assert_eq!(a, b);
        assert!(a.red_won());
    }

    #[test]
    fn seeded_async_runs_on_implicit_topologies() {
        // ...and on adjacency-free topologies, where the old engines could
        // not express it at all.
        let n = 2_000;
        let mut rng = StdRng::seed_from_u64(11);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample_n(n, &mut rng)
            .unwrap();
        let engine = Engine::new(ImplicitGnp::new(n, 0.3, 3).unwrap())
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_trace(true);
        let a = engine
            .run_seeded(&ProtocolSpec::BestOfThree, init.clone(), 21)
            .unwrap();
        let b = engine
            .run_seeded(&ProtocolSpec::BestOfThree, init.clone(), 21)
            .unwrap();
        assert_eq!(a, b, "seeded async must be reproducible");
        assert!(a.red_won());
        // The thread knob cannot change an asynchronous result (the round
        // is sequential by definition).
        let threaded = Engine::new(ImplicitGnp::new(n, 0.3, 3).unwrap())
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_threads(8)
            .with_trace(true)
            .run_seeded(&ProtocolSpec::BestOfThree, init, 21)
            .unwrap();
        assert_eq!(a, threaded);
    }

    #[test]
    fn async_kernel_path_matches_the_dyn_path_draw_for_draw() {
        // The async round routes built-in protocols through the live-state
        // kernel update; forced onto the dyn path (DynOnly) with the same
        // caller RNG it must produce bit-identical rounds.
        use crate::kernel::DynOnly;
        let g = generators::complete_bipartite(150, 170).unwrap();
        let sim = Engine::on_graph(&g)
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_stopping(StoppingCondition::fixed_rounds(6))
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(12);
        let init = InitialCondition::BernoulliWithBias { delta: 0.05 }
            .sample(&g, &mut rng)
            .unwrap();
        let specs = [
            ProtocolSpec::Voter,
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::BestOfThree,
            ProtocolSpec::BestOfK {
                k: 4,
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::Random,
            },
        ];
        for spec in specs {
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            let a = sim.run(&spec, init.clone(), &mut rng_a).unwrap();
            let b = sim.run(&DynOnly(spec), init.clone(), &mut rng_b).unwrap();
            assert_eq!(a, b, "{} diverged", spec.name());
        }
    }

    #[test]
    fn custom_protocols_on_implicit_topologies_are_a_typed_error() {
        use crate::kernel::DynOnly;
        let engine = Engine::new(Complete::new(50).unwrap()).unwrap();
        let init = Configuration::all_red(50);
        let mut rng = StdRng::seed_from_u64(13);
        assert!(matches!(
            engine.run(&DynOnly(ProtocolSpec::BestOfThree), init.clone(), &mut rng),
            Err(DynamicsError::InvalidParameter { .. })
        ));
        assert!(matches!(
            engine.run_seeded(&DynOnly(ProtocolSpec::BestOfThree), init, 0),
            Err(DynamicsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn run_seeded_is_reproducible() {
        let g = generators::complete(300);
        let sim = Engine::on_graph(&g).unwrap().with_trace(true);
        assert_eq!(sim.graph(), &g);
        let mut rng = StdRng::seed_from_u64(10);
        let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
            .sample(&g, &mut rng)
            .unwrap();
        let a = sim
            .run_seeded(&ProtocolSpec::BestOfThree, init.clone(), 77)
            .unwrap();
        let b = sim
            .run_seeded(&ProtocolSpec::BestOfThree, init, 77)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.red_won());
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let g = generators::complete(100);
        let sim = Engine::on_graph(&g).unwrap().with_trace(true);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
                .sample(&g, &mut rng)
                .unwrap();
            sim.run(&ProtocolSpec::BestOfThree, init, &mut rng).unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        let c = run(43);
        assert!(a.rounds != c.rounds || a.trace != c.trace);
    }

    fn biased_init(n: usize, delta: f64, seed: u64) -> Configuration {
        let mut rng = StdRng::seed_from_u64(seed);
        InitialCondition::BernoulliWithBias { delta }
            .sample_n(n, &mut rng)
            .unwrap()
    }

    #[test]
    fn implicit_topology_rejects_mismatched_initial_configuration() {
        let engine = Engine::new(Complete::new(10).unwrap()).unwrap();
        assert!(matches!(
            engine.run_seeded(&ProtocolSpec::BestOfThree, Configuration::all_red(4), 0),
            Err(DynamicsError::OpinionLengthMismatch {
                got: 4,
                expected: 10
            })
        ));
    }

    #[test]
    fn implicit_topology_single_step_matches_configuration_size() {
        let engine = Engine::new(Complete::new(100).unwrap()).unwrap();
        let init = biased_init(100, 0.1, 6);
        let mut next = Vec::new();
        engine.step_seeded(&ProtocolSpec::BestOfThree, &init, &mut next, 5, 0);
        assert_eq!(next.len(), 100);
    }

    #[test]
    fn best_of_three_reaches_red_consensus_on_implicit_complete() {
        let n = 3_000;
        let engine = Engine::new(Complete::new(n).unwrap())
            .unwrap()
            .with_trace(true);
        let res = engine
            .run_seeded(&ProtocolSpec::BestOfThree, biased_init(n, 0.12, 1), 7)
            .unwrap();
        assert!(res.red_won(), "stop reason {:?}", res.stop_reason);
        assert!(res.rounds <= 30, "took {} rounds", res.rounds);
        assert_eq!(res.trace.unwrap().len(), res.rounds + 1);
    }

    #[test]
    fn implicit_gnp_converges_and_is_reproducible() {
        let n = 2_000;
        let topo = ImplicitGnp::new(n, 0.3, 11).unwrap();
        let engine = Engine::new(topo).unwrap().with_trace(true);
        let init = biased_init(n, 0.12, 2);
        let a = engine
            .run_seeded(&ProtocolSpec::BestOfThree, init.clone(), 5)
            .unwrap();
        let b = engine
            .run_seeded(&ProtocolSpec::BestOfThree, init, 5)
            .unwrap();
        assert_eq!(a, b);
        assert!(a.red_won());
    }

    #[test]
    fn result_is_independent_of_thread_count() {
        let n = 9_000; // spans multiple 4096-vertex chunks
        let topo = ImplicitSbm::new(n, 3, 0.4, 0.2, 21).unwrap();
        let init = biased_init(n, 0.08, 3);
        let run_with = |threads: usize| {
            Engine::new(topo)
                .unwrap()
                .with_threads(threads)
                .with_trace(true)
                .run_seeded(&ProtocolSpec::BestOfThree, init.clone(), 99)
                .unwrap()
        };
        let one = run_with(1);
        assert_eq!(one, run_with(2));
        assert_eq!(one, run_with(8));
        assert!(one.reached_consensus());
    }

    #[test]
    fn every_builtin_kind_runs_on_an_implicit_topology() {
        let n = 600;
        let topo = CompleteBipartite::new(300, 300).unwrap();
        let init = biased_init(n, 0.1, 4);
        for kind in [
            ProtocolSpec::Voter,
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::KeepOwn,
            },
            ProtocolSpec::BestOfTwo {
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::BestOfThree,
            ProtocolSpec::BestOfK {
                k: 5,
                tie_rule: TieRule::KeepOwn,
            },
            ProtocolSpec::BestOfK {
                k: 4,
                tie_rule: TieRule::Random,
            },
            ProtocolSpec::LocalMajority {
                tie_rule: TieRule::KeepOwn,
            },
        ] {
            let engine = Engine::new(topo)
                .unwrap()
                .with_stopping(StoppingCondition::fixed_rounds(3));
            let res = engine.run_seeded(&kind, init.clone(), 13).unwrap();
            assert_eq!(res.rounds, 3, "{kind:?}");
        }
    }

    #[test]
    fn huge_hash_defined_local_majority_is_refused() {
        // Enumerating an ImplicitGnp row is Θ(n) per vertex, so local
        // majority at scale would be an unbounded Θ(n²)-per-round grind;
        // the engine must refuse it with a typed error (cheap topologies
        // and sampling protocols at the same size stay allowed).
        let n = bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT + 1;
        let gnp = ImplicitGnp::new(n, 0.5, 1).unwrap();
        let engine = Engine::new(gnp)
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(1));
        let init = Configuration::all_red(n);
        assert!(matches!(
            engine.run_seeded(
                &ProtocolSpec::LocalMajority {
                    tie_rule: TieRule::KeepOwn
                },
                init.clone(),
                0
            ),
            Err(DynamicsError::InvalidParameter { .. })
        ));
        // An opaque wrapper hides the family, so its rows count as
        // expensive even over the complete graph.
        let opaque = Engine::new(bo3_graph::ScalarSampled(Complete::new(n).unwrap()))
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(1));
        assert!(matches!(
            opaque.run_seeded(
                &ProtocolSpec::LocalMajority {
                    tie_rule: TieRule::KeepOwn
                },
                init.clone(),
                0
            ),
            Err(DynamicsError::InvalidParameter { .. })
        ));
        // The complete topology at the same size is fine (popcount path).
        let complete = Engine::new(Complete::new(n).unwrap())
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(1));
        assert!(complete
            .run_seeded(
                &ProtocolSpec::LocalMajority {
                    tie_rule: TieRule::KeepOwn
                },
                init,
                0
            )
            .is_ok());
        // The closed forms walk Θ(n)-long rows too, and so does an
        // adversarial complete graph (every row entry is one read); zero
        // rounds, so only validation can refuse them.
        fn refused<T: Topology>(engine: Engine<T>) -> bool {
            let n = engine.topology().n();
            let engine = engine.with_stopping(StoppingCondition::fixed_rounds(0));
            matches!(
                engine.run_seeded(
                    &ProtocolSpec::LocalMajority {
                        tie_rule: TieRule::KeepOwn
                    },
                    Configuration::all_red(n),
                    0
                ),
                Err(DynamicsError::InvalidParameter { .. })
            )
        }
        let bipartite = CompleteBipartite::new(n / 2, n - n / 2).unwrap();
        assert!(refused(Engine::new(bipartite).unwrap()), "bipartite");
        let blocks = [n / 3, n / 3, n - 2 * (n / 3)];
        let multipartite = CompleteMultipartite::new(&blocks).unwrap();
        assert!(refused(Engine::new(multipartite).unwrap()), "multipartite");
        let zealots = Adversary::build(
            &[crate::adversary::AdversarySpec::Zealots { fraction: 0.01 }],
            n,
            3,
        )
        .unwrap();
        let adversarial = Engine::new(Complete::new(n).unwrap())
            .unwrap()
            .with_adversary(zealots);
        assert!(refused(adversarial), "adversarial complete");
    }

    #[test]
    fn out_of_range_best_of_k_is_refused() {
        // Zero rounds: the refusal must come from validation, before any
        // round could allocate the gather's `k`-sized pick buffer.
        let g = generators::complete_bipartite(6, 7).unwrap();
        let engine = Engine::on_graph(&g)
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(0));
        let best_of = |k| ProtocolSpec::BestOfK {
            k,
            tie_rule: TieRule::KeepOwn,
        };
        for k in [0, MAX_BEST_OF_K + 1] {
            assert!(
                matches!(
                    engine.run_seeded(&best_of(k), Configuration::all_red(13), 0),
                    Err(DynamicsError::InvalidParameter { .. })
                ),
                "k = {k}"
            );
        }
        assert!(engine
            .run_seeded(&best_of(MAX_BEST_OF_K), Configuration::all_red(13), 0)
            .is_ok());
    }

    /// The step entry points check their arguments as the run entry points
    /// do, and panic with the error a run returns.  Without the check,
    /// `k = 0` panics in the CSR gather and a 200-opinion configuration
    /// stepped on `K_130` returns 200 opinions.  (`k = 2⁴⁰` would abort the
    /// process on the gather's pick buffer, so it is not tested: a
    /// regression would abort the test binary.)
    #[test]
    #[should_panic(expected = "best-of-k needs k in 1..=1024, got k = 0")]
    fn stepping_best_of_zero_panics_with_the_run_error() {
        let g = generators::complete_bipartite(6, 7).unwrap();
        let spec = ProtocolSpec::BestOfK {
            k: 0,
            tie_rule: TieRule::KeepOwn,
        };
        let config = Configuration::all_red(13);
        let engine = Engine::on_graph(&g).unwrap();
        engine.step_seeded(&spec, &config, &mut Vec::new(), 0, 0);
    }

    #[test]
    #[should_panic(expected = "best-of-k needs k in 1..=1024, got k = 1025")]
    fn stepping_best_of_k_past_the_cap_panics_with_the_run_error() {
        let g = generators::complete_bipartite(6, 7).unwrap();
        let spec = ProtocolSpec::BestOfK {
            k: MAX_BEST_OF_K + 1,
            tie_rule: TieRule::KeepOwn,
        };
        let config = Configuration::all_red(13);
        let rng = &mut StdRng::seed_from_u64(0);
        let engine = Engine::on_graph(&g).unwrap();
        engine.step_synchronous(&spec, &config, &mut Vec::new(), rng);
    }

    #[test]
    #[should_panic(expected = "opinion vector has length 200 but the graph has 130 vertices")]
    fn stepping_a_configuration_of_the_wrong_length_panics_with_the_run_error() {
        let engine = Engine::new(Complete::new(130).unwrap()).unwrap();
        let mut config = Configuration::all_red(200);
        let rng = &mut StdRng::seed_from_u64(0);
        let scratch = &mut AsyncScratch::new();
        engine.step_asynchronous_with(&ProtocolSpec::BestOfThree, &mut config, scratch, rng);
    }

    #[test]
    fn resume_refuses_checkpoints_it_could_not_have_produced() {
        let n = 3_000;
        let make = || {
            Engine::new(Complete::new(n).unwrap())
                .unwrap()
                .with_trace(true)
        };
        let init = biased_init(n, 0.06, 8);
        let kind = ProtocolSpec::BestOfThree;
        let reference = make().run_seeded(&kind, init.clone(), 7).unwrap();
        assert!(reference.rounds > 3, "took {} rounds", reference.rounds);
        let budget = RunBudget::rounds_per_slice(2);
        let outcome = make().run_seeded_kind_budgeted(kind, init, 7, &budget);
        let checkpoint = outcome.unwrap().paused().expect("paused at round 2");
        let resumed = make().resume(&checkpoint, &RunBudget::unlimited()).unwrap();
        assert_eq!(resumed.completed().as_ref(), Some(&reference));

        let edited = |edit: &dyn Fn(&mut RunCheckpoint)| {
            let mut edited = checkpoint.clone();
            edit(&mut edited);
            edited
        };
        let async_engine = make().with_schedule(Schedule::AsynchronousRandomOrder);
        let cases: Vec<(&str, RunCheckpoint, Engine<Complete>)> = vec![
            ("version", edited(&|c| c.version += 1), make()),
            ("n = 2999", edited(&|c| c.n -= 1), make()),
            ("schedule", checkpoint.clone(), async_engine),
            (
                "stopping condition",
                edited(&|c| c.stopping = StoppingCondition::fixed_rounds(9)),
                make(),
            ),
            (
                "partial trace",
                checkpoint.clone(),
                make().with_trace(false),
            ),
            (
                "opinion words",
                edited(&|c| c.opinion_words.push(0)),
                make(),
            ),
            (
                "beyond n",
                edited(&|c| *c.opinion_words.last_mut().unwrap() |= 1 << 63),
                make(),
            ),
            (
                "trace holds 0",
                edited(&|c| c.trace = Some(Trace::new())),
                make(),
            ),
            (
                "round 18446744073709551615",
                edited(&|c| c.round = usize::MAX),
                make(),
            ),
            (
                "0 blue vertices",
                edited(&|c| c.opinion_words.iter_mut().for_each(|w| *w = 0)),
                make(),
            ),
        ];
        for (refusal, checkpoint, engine) in cases {
            match engine.resume(&checkpoint, &RunBudget::unlimited()) {
                Err(DynamicsError::InvalidParameter { reason }) => {
                    assert!(reason.contains(refusal), "{refusal}: refused with {reason}")
                }
                other => panic!("{refusal}: resumed with {other:?}"),
            }
        }
    }

    #[test]
    fn borrowed_topology_runs_too() {
        let topo = Complete::new(500).unwrap();
        let engine = Engine::new(&topo).unwrap();
        let res = engine
            .run_seeded(&ProtocolSpec::BestOfThree, biased_init(500, 0.15, 5), 3)
            .unwrap();
        assert!(res.reached_consensus());
        assert_eq!(engine.topology().n(), 500);
    }
}
