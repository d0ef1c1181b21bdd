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
//! Custom protocols (no [`Protocol::kind`]) read neighbour rows through
//! [`UpdateContext`], which only a materialised graph can provide; the
//! engine serves them whenever [`bo3_graph::Topology::as_graph`] yields one
//! and returns a typed error otherwise.
//!
//! The historical engines survive as thin façades over this one type:
//! [`Simulator`] (below) for borrowed CSR graphs,
//! [`crate::parallel::ParallelSimulator`] and
//! [`crate::topology_sim::TopologySimulator`] — each is construction sugar
//! plus method forwarding, no stepping logic of its own.

use std::sync::atomic::{AtomicU64, Ordering};

use rand::seq::SliceRandom;
use rand::RngCore;
use serde::{Deserialize, Serialize};

use bo3_graph::{
    CsrGraph, CsrTopology, MeteredTopology, NeighbourLane, NeighbourSampler, PairHashSpec, Shape,
    Topology,
};
use bo3_obs::SamplerMeter;

use crate::adversary::{self, Adversary, AdversaryCounters};
use crate::checkpoint::{
    pack_opinions, RunBudget, RunCheckpoint, RunOutcome, RUN_CHECKPOINT_VERSION,
};
use crate::error::{DynamicsError, Result};
use crate::kernel::{self, PackedSnapshot, ProtocolKind};
use crate::observe::{maybe_now, NoopObserver, Observer};
use crate::opinion::{Configuration, Opinion};
use crate::protocol::{Protocol, UpdateContext};
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
            NeighbourSampler::new(graph)?;
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
        self.threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            threads
        };
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

    fn check_initial(&self, initial: &Configuration) -> Result<()> {
        if initial.len() != self.topo.n() {
            return Err(DynamicsError::OpinionLengthMismatch {
                got: initial.len(),
                expected: self.topo.n(),
            });
        }
        Ok(())
    }

    /// Refuses full-neighbourhood protocols on huge hash-defined topologies
    /// (no [`Topology::cheap_rows`]): enumerating their rows tests all
    /// `n − 1` candidate pairs per vertex, `Θ(n²)` per round, so — matching
    /// the `GraphError::TooLarge` policy of the graph-side diagnostics —
    /// that combination is a typed error past
    /// [`bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT`] instead of an open-ended
    /// grind.
    fn check_kind(&self, kind: ProtocolKind) -> Result<()> {
        if matches!(kind, ProtocolKind::LocalMajority(_))
            && !self.topo.is_all_but_self()
            && !self.topo.cheap_rows()
            && self.topo.n() > bo3_graph::DENSE_ANALYSIS_VERTEX_LIMIT
        {
            return Err(DynamicsError::InvalidParameter {
                reason: format!(
                    "local majority on {} enumerates all n-1 candidate pairs per vertex \
                     (Theta(n^2) per round); refusing beyond {} vertices",
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
    fn check_adversary(&self, kind: Option<ProtocolKind>) -> Result<()> {
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
        if kind.is_none() {
            return Err(DynamicsError::InvalidParameter {
                reason: "adversaries wrap the built-in protocol kernels; custom dyn protocols \
                         are not supported — use a ProtocolSpec / ProtocolKind protocol"
                    .into(),
            });
        }
        Ok(())
    }

    /// The materialised graph behind the topology, or the typed error the
    /// `dyn`-protocol paths report on adjacency-free topologies.
    fn dyn_graph(&self) -> Result<&CsrGraph> {
        self.topo
            .as_graph()
            .ok_or_else(|| DynamicsError::InvalidParameter {
                reason: format!(
                    "custom protocols read materialised neighbour rows through UpdateContext, \
                 which {} (an adjacency-free topology) cannot provide; use a built-in \
                 protocol or a materialised graph",
                    self.topo.label()
                ),
            })
    }

    // ------------------------------------------------------------------
    // Synchronous stepping — the only implementations in the crate
    // ------------------------------------------------------------------

    /// Runs one honest synchronous kernel chunk.  This is where the chunk
    /// reads the topology's [`Shape`] — once — and hands the concrete family
    /// to its kernel:
    ///
    /// * a materialised graph ([`Shape::Csr`]) runs the batched and
    ///   row-hoisted CSR kernels, which draw row-uniformly and never reject,
    ///   so they run unmetered;
    /// * a hash-defined family takes the draw-ahead lane
    ///   ([`kernel::try_dispatch_chunk_lane`]) when `scoped` says the chunk
    ///   RNG is one fresh stream per `(master_seed, round, chunk)` work
    ///   unit, dropped at chunk end — the licence the lane's discarded
    ///   pre-draw tail needs.  Caller-RNG steppers pass `false` and keep the
    ///   strict scalar sampler;
    /// * everything else — and an opaque wrapper, over itself — runs the
    ///   sampled kernels, through [`MeteredTopology`] when the observer
    ///   wants a sampler meter.
    ///
    /// Every route draws exactly the neighbours the sampled kernel over
    /// the engine's own topology would, so the route never shows in the
    /// output.
    #[inline]
    fn dispatch<R: RngCore + ?Sized>(
        &self,
        kind: ProtocolKind,
        snap: &PackedSnapshot,
        start: usize,
        out: &mut [Opinion],
        rng: &mut R,
        scoped: bool,
    ) {
        let meter = self.observer.sampler_meter();
        let topo = &self.topo;
        macro_rules! sampled {
            ($family:expr) => {
                match meter {
                    Some(meter) => kernel::dispatch_chunk_topology(
                        kind,
                        &MeteredTopology::new($family, meter),
                        snap,
                        start,
                        out,
                        rng,
                    ),
                    None => kernel::dispatch_chunk_topology(kind, $family, snap, start, out, rng),
                }
            };
        }
        macro_rules! hashed {
            ($family:expr) => {{
                let spec = $family.pair_hash_spec();
                if !(scoped
                    && kernel::try_dispatch_chunk_lane(kind, spec, snap, start, out, rng, meter))
                {
                    sampled!($family)
                }
            }};
        }
        match topo.shape() {
            Shape::Complete(family) => sampled!(&family),
            Shape::CompleteBipartite(family) => sampled!(family),
            Shape::CompleteMultipartite(family) => sampled!(family),
            Shape::ImplicitGnp(family) => hashed!(family),
            Shape::ImplicitSbm(family) => hashed!(family),
            Shape::Csr(graph) => kernel::dispatch_chunk_csr(kind, graph, snap, start, out, rng),
            Shape::Opaque => sampled!(topo),
        }
    }

    /// [`adversary::update_chunk_adversarial`] on the concrete family, with
    /// the same single [`Shape`] match and metering as [`Engine::dispatch`]
    /// (the adversarial chunk has no lane or batched kernel: it samples).
    #[allow(clippy::too_many_arguments)] // private plumbing: mirrors the adversarial chunk
    #[inline]
    fn dispatch_adversarial<R: RngCore + ?Sized, A: RngCore + ?Sized>(
        &self,
        adv: &Adversary,
        kind: ProtocolKind,
        snap: &PackedSnapshot,
        start: usize,
        out: &mut [Opinion],
        round: u64,
        rng: &mut R,
        adv_rng: &mut A,
        dropped: &AtomicU64,
    ) {
        let meter = self.observer.sampler_meter();
        let topo = &self.topo;
        macro_rules! chunk {
            ($family:expr) => {
                adversary::update_chunk_adversarial(
                    adv, kind, $family, snap, start, out, round, rng, adv_rng, dropped,
                )
            };
        }
        macro_rules! sampled {
            ($family:expr) => {
                match meter {
                    Some(meter) => chunk!(&MeteredTopology::new($family, meter)),
                    None => chunk!($family),
                }
            };
        }
        match topo.shape() {
            Shape::Complete(family) => sampled!(&family),
            Shape::CompleteBipartite(family) => sampled!(family),
            Shape::CompleteMultipartite(family) => sampled!(family),
            Shape::ImplicitGnp(family) => sampled!(family),
            Shape::ImplicitSbm(family) => sampled!(family),
            Shape::Csr(graph) => chunk!(&CsrTopology::new(graph)),
            Shape::Opaque => sampled!(topo),
        }
    }

    /// One caller-RNG synchronous round: reads `current`, writes the next
    /// opinions into `next` (cleared and refilled), consuming `rng` over the
    /// whole vertex range in order.
    ///
    /// `round` and `dropped` feed the adversary (partition windows, the
    /// drop-coin stream and the drop tally); honest rounds ignore both.
    /// Caller-RNG execution is sequential (one work unit), so the
    /// adversary's stream coordinate is `(stream_seed, round, 0)`.
    #[allow(clippy::too_many_arguments)] // private plumbing: scratch buffers ride along
    fn step_sync_with_rng(
        &self,
        protocol: &dyn Protocol,
        kind: Option<ProtocolKind>,
        sampler: Option<&NeighbourSampler<'_>>,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        snap: &mut PackedSnapshot,
        round: u64,
        dropped: &AtomicU64,
        rng: &mut dyn RngCore,
    ) {
        let prev = current.as_slice();
        next.clear();
        if let Some(kind) = kind {
            next.resize(prev.len(), Opinion::Red);
            snap.repack_from(prev);
            match &self.adversary {
                None => self.dispatch(kind, snap, 0, next, rng, false),
                Some(adv) => {
                    let mut adv_rng = adv.round_rng(0, round, 0);
                    self.dispatch_adversarial(
                        adv,
                        kind,
                        snap,
                        0,
                        next,
                        round,
                        rng,
                        &mut adv_rng,
                        dropped,
                    );
                }
            }
            return;
        }
        let sampler = sampler.expect("dyn-path rounds carry a sampler");
        next.reserve(prev.len());
        for v in 0..prev.len() {
            let ctx = UpdateContext {
                vertex: v,
                current: prev[v],
                previous: prev,
                sampler,
            };
            next.push(protocol.update(&ctx, rng));
        }
    }

    /// One seeded synchronous kernel round: one RNG per
    /// `(master_seed, round, chunk)` work unit via
    /// [`kernel::kernel_chunk_rng`], chunks fanned across the worker pool —
    /// bit-identical at any thread count.
    #[allow(clippy::too_many_arguments)] // private plumbing: scratch buffers ride along
    fn step_sync_seeded_kernel(
        &self,
        kind: ProtocolKind,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        snap: &mut PackedSnapshot,
        master_seed: u64,
        round: u64,
        dropped: &AtomicU64,
    ) {
        let prev = current.as_slice();
        next.clear();
        next.resize(prev.len(), Opinion::Red);
        snap.repack_from(prev);
        let snap_ref = &*snap;
        match &self.adversary {
            None => crate::parallel::run_chunks(self.threads, next, &|chunk, start, out| {
                let timer = maybe_now(&self.observer);
                let mut rng = kernel::kernel_chunk_rng(master_seed, round, chunk);
                self.dispatch(kind, snap_ref, start, out, &mut rng, true);
                if let Some(t0) = timer {
                    self.observer
                        .on_chunk(chunk, out.len() as u64, t0.elapsed().as_nanos() as u64);
                }
            }),
            // The adversarial round keeps the exact same kernel streams and
            // chunk layout; the adversary's drop coins ride a second,
            // salted per-(seed, round, chunk) stream, so the round stays
            // bit-identical at any thread count.
            Some(adv) => crate::parallel::run_chunks(self.threads, next, &|chunk, start, out| {
                let timer = maybe_now(&self.observer);
                let mut rng = kernel::kernel_chunk_rng(master_seed, round, chunk);
                let mut adv_rng = adv.round_rng(master_seed, round, chunk);
                self.dispatch_adversarial(
                    adv,
                    kind,
                    snap_ref,
                    start,
                    out,
                    round,
                    &mut rng,
                    &mut adv_rng,
                    dropped,
                );
                if let Some(t0) = timer {
                    self.observer
                        .on_chunk(chunk, out.len() as u64, t0.elapsed().as_nanos() as u64);
                }
            }),
        }
    }

    /// One seeded synchronous `dyn`-fallback round: the same chunk schedule
    /// with the ChaCha8 [`crate::parallel::chunk_rng`] streams the fallback
    /// has always used.
    fn step_sync_seeded_dyn(
        &self,
        protocol: &dyn Protocol,
        sampler: &NeighbourSampler<'_>,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        master_seed: u64,
        round: u64,
    ) {
        let prev = current.as_slice();
        next.clear();
        next.resize(prev.len(), Opinion::Red);
        crate::parallel::run_chunks(self.threads, next, &|chunk, start, out| {
            let mut rng = crate::parallel::chunk_rng(master_seed, round, chunk);
            crate::parallel::update_chunk(protocol, sampler, prev, start, out, &mut rng);
        });
    }

    // ------------------------------------------------------------------
    // Asynchronous stepping — the only implementation in the crate
    // ------------------------------------------------------------------

    /// One asynchronous (random sequential) round: every vertex updates
    /// exactly once, in a fresh uniformly random order drawn from `rng`,
    /// reading the **current** (partially updated) state.
    ///
    /// Built-in protocols run the live-state kernel update
    /// ([`kernel::update_vertex_live`]) against a bit-packed mirror of the
    /// configuration — which is what makes the round topology-generic (an
    /// implicit topology samples neighbours arithmetically) — while custom
    /// protocols keep the materialised `dyn` loop.  Both consume `rng`
    /// identically for the protocols both can express.
    ///
    /// `scoped` declares that `rng` is a per-round stream dropped when the
    /// round ends (the seeded `(master_seed, round, ASYNC_ROUND_CHUNK)`
    /// stream) — the licence the draw-ahead lane sweep needs to pre-draw
    /// candidates; see the contract in `bo3_graph::topology`.  Caller-held
    /// RNGs (`step_asynchronous_with`, `run`) pass `false` and stay on the
    /// strict scalar sweep, preserving their RNG positions draw for draw.
    ///
    /// The round reads the topology's [`Shape`] once and runs
    /// [`Engine::async_sweep`] on the concrete family.
    #[allow(clippy::too_many_arguments)] // private plumbing: scratch buffers ride along
    fn step_async(
        &self,
        protocol: Option<&dyn Protocol>,
        kind: Option<ProtocolKind>,
        sampler: Option<&NeighbourSampler<'_>>,
        config: &mut Configuration,
        order: &mut Vec<usize>,
        live: &mut PackedSnapshot,
        round: u64,
        adv_master: u64,
        dropped: &AtomicU64,
        scoped: bool,
        rng: &mut dyn RngCore,
    ) {
        // Identity-refill then shuffle: the buffer's allocation is reused
        // across rounds (see `AsyncScratch`), but its *contents* must be the
        // identity permutation before each shuffle — shuffling last round's
        // order instead would change the pinned seeded permutation.
        order.clear();
        order.extend(0..config.len());
        {
            let mut r = &mut *rng;
            order.shuffle(&mut r);
        }
        match kind {
            Some(kind) => {
                live.repack_from(config.as_slice());
                // One shape match per round; the sweep runs on the concrete
                // family, and a hash-defined one offers its lane spec.
                let topo = &self.topo;
                macro_rules! sweep {
                    ($family:expr, $lane:expr) => {
                        self.async_sweep(
                            kind,
                            $family,
                            if scoped { $lane } else { None },
                            order,
                            live,
                            config,
                            round,
                            adv_master,
                            dropped,
                            rng,
                        )
                    };
                }
                match topo.shape() {
                    Shape::Complete(family) => sweep!(&family, None),
                    Shape::CompleteBipartite(family) => sweep!(family, None),
                    Shape::CompleteMultipartite(family) => sweep!(family, None),
                    Shape::ImplicitGnp(family) => sweep!(family, Some(family.pair_hash_spec())),
                    Shape::ImplicitSbm(family) => sweep!(family, Some(family.pair_hash_spec())),
                    Shape::Csr(graph) => sweep!(&CsrTopology::new(graph), None),
                    Shape::Opaque => sweep!(topo, None),
                }
            }
            None => {
                assert!(
                    self.adversary.is_none(),
                    "adversaries wrap the built-in protocol kernels; custom dyn protocols are \
                     not supported (the run entry points report this as a typed error)"
                );
                let protocol = protocol.expect("dyn-path rounds carry a protocol");
                let sampler = sampler.expect("dyn-path rounds carry a sampler");
                for &v in order.iter() {
                    let new_opinion = {
                        let prev = config.as_slice();
                        let ctx = UpdateContext {
                            vertex: v,
                            current: prev[v],
                            previous: prev,
                            sampler,
                        };
                        protocol.update(&ctx, rng)
                    };
                    config.set(v, new_opinion);
                }
            }
        }
    }

    /// One asynchronous kernel round over the concrete `family` that
    /// [`Engine::step_async`]'s shape match resolved: the adversarial sweep
    /// when an adversary is attached, the draw-ahead lane sweep when `lane`
    /// carries a hash family's spec (only for scoped round RNGs) and the
    /// protocol draws a fixed number of samples, the live-state kernel
    /// sweep otherwise.  The sampled sweeps go through [`MeteredTopology`]
    /// when the observer wants a sampler meter.
    #[allow(clippy::too_many_arguments)] // private plumbing: scratch buffers ride along
    fn async_sweep<F: Topology>(
        &self,
        kind: ProtocolKind,
        family: &F,
        lane: Option<PairHashSpec>,
        order: &[usize],
        live: &mut PackedSnapshot,
        config: &mut Configuration,
        round: u64,
        adv_master: u64,
        dropped: &AtomicU64,
        rng: &mut dyn RngCore,
    ) {
        let meter = self.observer.sampler_meter();
        if let Some(adv) = &self.adversary {
            // Asynchronous rounds are one sequential work unit, so the
            // adversary stream mirrors the kernel stream's layout: one
            // stream per round at ASYNC_ROUND_CHUNK.
            let mut adv_rng = adv.round_rng(adv_master, round, ASYNC_ROUND_CHUNK);
            let mut lost = 0u64;
            match meter {
                Some(meter) => async_adversarial_sweep(
                    adv,
                    kind,
                    &MeteredTopology::new(family, meter),
                    order,
                    live,
                    config,
                    round,
                    rng,
                    &mut adv_rng,
                    &mut lost,
                ),
                None => async_adversarial_sweep(
                    adv,
                    kind,
                    family,
                    order,
                    live,
                    config,
                    round,
                    rng,
                    &mut adv_rng,
                    &mut lost,
                ),
            }
            if lost > 0 {
                dropped.fetch_add(lost, Ordering::Relaxed);
            }
            return;
        }
        if let (Some(k), Some(spec)) = (kernel::lane_samples(kind), lane) {
            async_lane_sweep(k, spec, order, live, config, rng, meter);
            return;
        }
        match meter {
            Some(meter) => async_kernel_sweep(
                kind,
                &MeteredTopology::new(family, meter),
                order,
                live,
                config,
                rng,
            ),
            None => async_kernel_sweep(kind, family, order, live, config, rng),
        }
    }

    // ------------------------------------------------------------------
    // Public single-step entry points
    // ------------------------------------------------------------------

    /// The `dyn`-fallback sampler for the panicking step entry points:
    /// `None` when `kind` is present (kernel paths need no sampler), else
    /// the unchecked sampler over the backing graph — panicking, unlike the
    /// run entry points' typed [`Engine::dyn_graph`] error, because the
    /// step signatures predate the unification and return `()`.
    fn step_sampler(&self, kind: Option<ProtocolKind>) -> Option<NeighbourSampler<'_>> {
        if kind.is_some() {
            return None;
        }
        Some(NeighbourSampler::new_unchecked(
            self.dyn_graph()
                .expect("custom protocols need a materialised graph"),
        ))
    }

    /// Performs one caller-RNG synchronous round: reads `current`, writes
    /// the next opinions into `next` (which is cleared and refilled).
    ///
    /// Built-in protocols ([`Protocol::kind`] returns `Some`) run through
    /// the monomorphized kernels over a bit-packed snapshot; custom
    /// protocols use the generic `dyn` loop, which needs a materialised
    /// graph behind the topology (panics otherwise — use the run entry
    /// points for a typed error).  Both paths consume `rng` identically, so
    /// the choice is invisible in the output.
    pub fn step_synchronous(
        &self,
        protocol: &dyn Protocol,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        rng: &mut dyn RngCore,
    ) {
        let kind = protocol.kind();
        let sampler = self.step_sampler(kind);
        let mut snap = PackedSnapshot::all_red(0);
        let dropped = AtomicU64::new(0);
        self.step_sync_with_rng(
            protocol,
            kind,
            sampler.as_ref(),
            current,
            next,
            &mut snap,
            0,
            &dropped,
            rng,
        );
    }

    /// Performs one caller-RNG asynchronous round on the live configuration
    /// (see the module docs); panics like [`Engine::step_synchronous`] when
    /// a custom protocol meets an adjacency-free topology.
    ///
    /// Allocates the round's scratch buffers afresh — callers stepping many
    /// rounds should hold an [`AsyncScratch`] and use
    /// [`Engine::step_asynchronous_with`] instead, which reuses them.
    pub fn step_asynchronous(
        &self,
        protocol: &dyn Protocol,
        config: &mut Configuration,
        rng: &mut dyn RngCore,
    ) {
        let mut scratch = AsyncScratch::new();
        self.step_asynchronous_with(protocol, config, &mut scratch, rng);
    }

    /// [`Engine::step_asynchronous`] with caller-held scratch: the shuffled
    /// order buffer and the packed live mirror are reused across rounds
    /// instead of re-allocated every call.  Buffer reuse never changes the
    /// output — each round refills the order with the identity permutation
    /// before shuffling, so the permutation stream is exactly the fresh
    /// allocation's (the schedule-matrix suite pins this bit-identical).
    pub fn step_asynchronous_with(
        &self,
        protocol: &dyn Protocol,
        config: &mut Configuration,
        scratch: &mut AsyncScratch,
        rng: &mut dyn RngCore,
    ) {
        let kind = protocol.kind();
        let sampler = self.step_sampler(kind);
        let dropped = AtomicU64::new(0);
        self.step_async(
            Some(protocol),
            kind,
            sampler.as_ref(),
            config,
            &mut scratch.order,
            &mut scratch.live,
            0,
            0,
            &dropped,
            false,
            rng,
        );
    }

    /// Performs one synchronous round with the seeded
    /// `(master_seed, round, chunk)` RNG derivation (kernel streams for
    /// built-in protocols, ChaCha8 streams for the `dyn` fallback), across
    /// the configured worker pool.
    pub fn step_seeded(
        &self,
        protocol: &dyn Protocol,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        master_seed: u64,
        round: u64,
    ) {
        let mut snap = PackedSnapshot::all_red(0);
        let dropped = AtomicU64::new(0);
        match protocol.kind() {
            Some(kind) => self.step_sync_seeded_kernel(
                kind,
                current,
                next,
                &mut snap,
                master_seed,
                round,
                &dropped,
            ),
            None => {
                let sampler = self.step_sampler(None).expect("dyn path builds a sampler");
                self.step_sync_seeded_dyn(protocol, &sampler, current, next, master_seed, round);
            }
        }
    }

    /// [`Engine::step_seeded`] with the protocol given as a bare
    /// [`ProtocolKind`] — the entry point for topology-generic callers that
    /// never box a protocol.
    pub fn step_seeded_kind(
        &self,
        kind: ProtocolKind,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        master_seed: u64,
        round: u64,
    ) {
        let mut snap = PackedSnapshot::all_red(0);
        let dropped = AtomicU64::new(0);
        self.step_sync_seeded_kernel(kind, current, next, &mut snap, master_seed, round, &dropped);
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
        self.check_initial(&initial)?;
        let kind = protocol.kind();
        self.check_adversary(kind)?;
        if let Some(kind) = kind {
            self.check_kind(kind)?;
        }
        let sampler = if kind.is_none() {
            Some(NeighbourSampler::new_unchecked(self.dyn_graph()?))
        } else {
            None
        };
        let mut scratch: Vec<Opinion> = Vec::with_capacity(initial.len());
        let mut snap = PackedSnapshot::all_red(0);
        let mut order: Vec<usize> = Vec::new();
        let dropped = AtomicU64::new(0);
        let mut result = drive(
            &self.stopping,
            self.record_trace,
            initial,
            |config, round| {
                let timer = maybe_now(&self.observer);
                match self.schedule {
                    Schedule::Synchronous => {
                        self.step_sync_with_rng(
                            protocol,
                            kind,
                            sampler.as_ref(),
                            config,
                            &mut scratch,
                            &mut snap,
                            round as u64,
                            &dropped,
                            rng,
                        );
                        config.overwrite_from(&scratch);
                    }
                    Schedule::AsynchronousRandomOrder => {
                        self.step_async(
                            Some(protocol),
                            kind,
                            sampler.as_ref(),
                            config,
                            &mut order,
                            &mut snap,
                            round as u64,
                            0,
                            &dropped,
                            false,
                            rng,
                        );
                    }
                }
                if let Some(t0) = timer {
                    self.observer.on_round(
                        round as u64,
                        config.len() as u64,
                        t0.elapsed().as_nanos() as u64,
                    );
                }
            },
        );
        if let Some(adv) = &self.adversary {
            let counters = adv.counters(result.rounds, dropped.into_inner());
            self.observer.on_adversary(&counters);
            result.adversary = Some(counters);
        }
        Ok(result)
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
        match protocol.kind() {
            Some(kind) => self.run_seeded_kind(kind, initial, master_seed),
            None => self.run_seeded_dyn(protocol, initial, master_seed),
        }
    }

    /// [`Engine::run_seeded`] for a bare [`ProtocolKind`] — the
    /// topology-generic entry point (custom `dyn` protocols have no kind and
    /// go through [`Engine::run_seeded`] instead).
    pub fn run_seeded_kind(
        &self,
        kind: ProtocolKind,
        initial: Configuration,
        master_seed: u64,
    ) -> Result<RunResult> {
        match self.run_seeded_kind_budgeted(kind, initial, master_seed, &RunBudget::unlimited())? {
            RunOutcome::Completed(result) => Ok(result),
            RunOutcome::Paused(_) => unreachable!("an unlimited budget never pauses"),
        }
    }

    /// [`Engine::run_seeded_kind`] under a [`RunBudget`]: the run yields at
    /// the round boundary where the budget first fires and hands back a
    /// [`RunCheckpoint`]; [`Engine::resume`] continues it **bit-identically**
    /// to an uninterrupted run, on either schedule, at any thread count (see
    /// [`crate::checkpoint`] for why the checkpoint needs no RNG state).
    pub fn run_seeded_kind_budgeted(
        &self,
        kind: ProtocolKind,
        initial: Configuration,
        master_seed: u64,
        budget: &RunBudget,
    ) -> Result<RunOutcome> {
        self.check_initial(&initial)?;
        self.check_adversary(Some(kind))?;
        self.check_kind(kind)?;
        let state = DriveState::fresh(initial, self.record_trace);
        self.seeded_kind_slice(kind, master_seed, state, 0, budget)
    }

    /// Continues a paused seeded run from its checkpoint, under a new
    /// budget.  The engine must be configured identically to the one that
    /// produced the checkpoint (same topology size, schedule, stopping
    /// condition and trace flag) — mismatches are typed errors, never silent
    /// divergence.  The thread count is free to differ: seeded rounds are
    /// bit-identical at any thread count.
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
        self.check_adversary(Some(checkpoint.protocol))?;
        self.check_kind(checkpoint.protocol)?;
        let state = DriveState {
            config: checkpoint.configuration()?,
            rounds: checkpoint.round,
            trace: checkpoint.trace.clone(),
            initial_blue_fraction: checkpoint.initial_blue_fraction,
        };
        self.seeded_kind_slice(
            checkpoint.protocol,
            checkpoint.master_seed,
            state,
            checkpoint.dropped_samples,
            budget,
        )
    }

    /// [`Engine::resume`] with an unlimited budget: runs the checkpoint to
    /// completion.
    pub fn resume_to_end(&self, checkpoint: &RunCheckpoint) -> Result<RunResult> {
        match self.resume(checkpoint, &RunBudget::unlimited())? {
            RunOutcome::Completed(result) => Ok(result),
            RunOutcome::Paused(_) => unreachable!("an unlimited budget never pauses"),
        }
    }

    /// The one seeded-kernel slice driver behind [`Engine::run_seeded_kind`],
    /// [`Engine::run_seeded_kind_budgeted`] and [`Engine::resume`]: drives
    /// rounds (both schedules) until the stopping condition or the budget
    /// fires, then assembles the result or captures the checkpoint.
    fn seeded_kind_slice(
        &self,
        kind: ProtocolKind,
        master_seed: u64,
        state: DriveState,
        prior_dropped: u64,
        budget: &RunBudget,
    ) -> Result<RunOutcome> {
        let mut scratch: Vec<Opinion> = Vec::with_capacity(state.config.len());
        // The packed snapshot doubles as the async path's live mirror; it is
        // repacked in place each round either way.
        let mut snap = PackedSnapshot::all_red(0);
        let mut order: Vec<usize> = Vec::new();
        let dropped = AtomicU64::new(prior_dropped);
        let outcome = drive_budgeted(&self.stopping, budget, state, |config, round| {
            let timer = maybe_now(&self.observer);
            match self.schedule {
                Schedule::Synchronous => {
                    self.step_sync_seeded_kernel(
                        kind,
                        config,
                        &mut scratch,
                        &mut snap,
                        master_seed,
                        round as u64,
                        &dropped,
                    );
                    config.overwrite_from(&scratch);
                }
                Schedule::AsynchronousRandomOrder => {
                    let mut rng =
                        kernel::kernel_chunk_rng(master_seed, round as u64, ASYNC_ROUND_CHUNK);
                    self.step_async(
                        None,
                        Some(kind),
                        None,
                        config,
                        &mut order,
                        &mut snap,
                        round as u64,
                        master_seed,
                        &dropped,
                        true,
                        &mut rng,
                    );
                }
            }
            if let Some(t0) = timer {
                self.observer.on_round(
                    round as u64,
                    config.len() as u64,
                    t0.elapsed().as_nanos() as u64,
                );
            }
        });
        match outcome {
            DriveOutcome::Done(mut result) => {
                if let Some(adv) = &self.adversary {
                    let counters = adv.counters(result.rounds, dropped.into_inner());
                    self.observer.on_adversary(&counters);
                    result.adversary = Some(counters);
                }
                Ok(RunOutcome::Completed(result))
            }
            DriveOutcome::Paused(state) => Ok(RunOutcome::Paused(Box::new(RunCheckpoint {
                version: RUN_CHECKPOINT_VERSION,
                protocol: kind,
                schedule: self.schedule,
                stopping: self.stopping,
                master_seed,
                round: state.rounds,
                n: state.config.len(),
                opinion_words: pack_opinions(state.config.as_slice()),
                initial_blue_fraction: state.initial_blue_fraction,
                dropped_samples: dropped.into_inner(),
                trace: state.trace,
            }))),
        }
    }

    /// The seeded `dyn`-fallback runner: ChaCha8 streams over the same
    /// work-unit coordinates as the kernel path.
    fn run_seeded_dyn(
        &self,
        protocol: &dyn Protocol,
        initial: Configuration,
        master_seed: u64,
    ) -> Result<RunResult> {
        self.check_initial(&initial)?;
        self.check_adversary(None)?;
        let graph = self.dyn_graph()?;
        let sampler = NeighbourSampler::new_unchecked(graph);
        let mut scratch: Vec<Opinion> = Vec::with_capacity(initial.len());
        let mut snap = PackedSnapshot::all_red(0);
        let mut order: Vec<usize> = Vec::new();
        let dropped = AtomicU64::new(0);
        Ok(drive(
            &self.stopping,
            self.record_trace,
            initial,
            |config, round| {
                let timer = maybe_now(&self.observer);
                match self.schedule {
                    Schedule::Synchronous => {
                        self.step_sync_seeded_dyn(
                            protocol,
                            &sampler,
                            config,
                            &mut scratch,
                            master_seed,
                            round as u64,
                        );
                        config.overwrite_from(&scratch);
                    }
                    Schedule::AsynchronousRandomOrder => {
                        let mut rng = crate::parallel::chunk_rng(
                            master_seed,
                            round as u64,
                            ASYNC_ROUND_CHUNK,
                        );
                        self.step_async(
                            Some(protocol),
                            None,
                            Some(&sampler),
                            config,
                            &mut order,
                            &mut snap,
                            round as u64,
                            0,
                            &dropped,
                            false,
                            &mut rng,
                        );
                    }
                }
                if let Some(t0) = timer {
                    self.observer.on_round(
                        round as u64,
                        config.len() as u64,
                        t0.elapsed().as_nanos() as u64,
                    );
                }
            },
        ))
    }
}

/// Creates an engine over a borrowed materialised graph — shorthand for
/// `Engine::new(CsrTopology::new(graph))`, the migration target for code
/// written against the historical CSR-only `Simulator`.
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

/// The honest asynchronous kernel sweep, generic over the (possibly
/// metered) topology so the observer's sampler meter can wrap it without a
/// second copy of the loop.
///
/// The live blue count makes the complete-topology local majority O(1) per
/// update instead of a Θ(n) row walk; it is maintained exactly, so counts
/// (and tie coins) match the row-walking path bit for bit.
fn async_kernel_sweep<T: Topology>(
    kind: ProtocolKind,
    topo: &T,
    order: &[usize],
    live: &mut PackedSnapshot,
    config: &mut Configuration,
    rng: &mut dyn RngCore,
) {
    let mut blues = live.blue_count();
    for &v in order {
        let new = kernel::update_vertex_live(kind, topo, live, blues, v, rng);
        if live.get(v) != new {
            blues = if new.is_blue() { blues + 1 } else { blues - 1 };
            live.set(v, new);
            config.set(v, new);
        }
    }
}

/// The draw-ahead asynchronous sweep for fixed-draw-count protocols on
/// hash-defined topologies: [`async_kernel_sweep`] with the per-vertex
/// scalar sampling replaced by one [`NeighbourLane`] shared across the
/// round.  Only seeded rounds may take this path — the round RNG is scoped
/// to `(master_seed, round, ASYNC_ROUND_CHUNK)` and dropped at round end,
/// which is what makes the lane's pre-drawn tail unobservable — and the
/// accepted neighbours are bit-identical to the scalar sweep, so the
/// partially-updated live state evolves identically.
///
/// The lane-eligible kinds never reach a tie coin (`kernel::lane_samples`
/// filters for odd draw counts or `KeepOwn`), so the pure majority decision
/// [`kernel::decide_pure`] is the whole update rule.
fn async_lane_sweep(
    k: usize,
    spec: PairHashSpec,
    order: &[usize],
    live: &mut PackedSnapshot,
    config: &mut Configuration,
    rng: &mut dyn RngCore,
    meter: Option<&SamplerMeter>,
) {
    let mut lane = NeighbourLane::new(spec);
    for &v in order {
        let mut blues = 0usize;
        for _ in 0..k {
            let (w, _) = lane.sample(v, rng);
            blues += live.is_blue(w) as usize;
        }
        let new = kernel::decide_pure(blues, k, live.get(v));
        if live.get(v) != new {
            live.set(v, new);
            config.set(v, new);
        }
    }
    if let Some(meter) = meter {
        meter.record_lane(lane.consumed(), (order.len() * k) as u64, lane.drawn());
    }
}

/// The adversarial asynchronous sweep, generic like [`async_kernel_sweep`]
/// (zealots skip their update; `lost` tallies samples the adversary ate).
#[allow(clippy::too_many_arguments)] // private plumbing: mirrors the adversarial update
fn async_adversarial_sweep<T: Topology>(
    adv: &Adversary,
    kind: ProtocolKind,
    topo: &T,
    order: &[usize],
    live: &mut PackedSnapshot,
    config: &mut Configuration,
    round: u64,
    rng: &mut dyn RngCore,
    adv_rng: &mut dyn RngCore,
    lost: &mut u64,
) {
    for &v in order {
        if adv.is_zealot(v) {
            continue;
        }
        let new = adversary::update_vertex_adversarial(
            adv, kind, topo, live, v, round, rng, adv_rng, lost,
        );
        if live.get(v) != new {
            live.set(v, new);
            config.set(v, new);
        }
    }
}

/// Caller-held scratch buffers for repeated asynchronous stepping: the
/// shuffled vertex order and the packed live mirror, reused across rounds by
/// [`Engine::step_asynchronous_with`] instead of re-allocated per call.
///
/// Reuse is purely an allocation optimisation — each round refills the order
/// buffer with the identity permutation before shuffling, so the results are
/// bit-identical to fresh buffers.
pub struct AsyncScratch {
    pub(crate) order: Vec<usize>,
    pub(crate) live: PackedSnapshot,
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

impl Default for AsyncScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Synchronous / asynchronous voting dynamics simulator over a borrowed
/// graph — the historical CSR-only engine, now a thin façade over
/// [`Engine`]`<CsrTopology>` kept so existing call sites (and the pinned
/// determinism suites) keep compiling; new code should use [`Engine`]
/// directly.  Every method forwards; no stepping logic lives here.
pub struct Simulator<'g> {
    engine: Engine<CsrTopology<'g>>,
}

impl<'g> Simulator<'g> {
    /// Creates a simulator with the default (synchronous, stop-at-consensus)
    /// behaviour. Fails if the graph is empty or has an isolated vertex,
    /// which could never perform an update.
    pub fn new(graph: &'g CsrGraph) -> Result<Self> {
        Ok(Simulator {
            engine: Engine::on_graph(graph)?,
        })
    }

    /// Sets the update schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> Self {
        self.engine = self.engine.with_schedule(schedule);
        self
    }

    /// Sets the stopping condition.
    pub fn with_stopping(mut self, stopping: StoppingCondition) -> Self {
        self.engine = self.engine.with_stopping(stopping);
        self
    }

    /// Enables or disables per-round trace recording.
    pub fn with_trace(mut self, record: bool) -> Self {
        self.engine = self.engine.with_trace(record);
        self
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g CsrGraph {
        self.engine.graph()
    }

    /// The configured stopping condition.
    pub fn stopping(&self) -> StoppingCondition {
        self.engine.stopping()
    }

    /// One caller-RNG synchronous round — see [`Engine::step_synchronous`].
    pub fn step_synchronous(
        &self,
        protocol: &dyn Protocol,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        rng: &mut dyn RngCore,
    ) {
        self.engine.step_synchronous(protocol, current, next, rng);
    }

    /// One caller-RNG asynchronous round — see [`Engine::step_asynchronous`].
    pub fn step_asynchronous(
        &self,
        protocol: &dyn Protocol,
        config: &mut Configuration,
        rng: &mut dyn RngCore,
    ) {
        self.engine.step_asynchronous(protocol, config, rng);
    }

    /// One seeded synchronous round — see [`Engine::step_seeded`].
    pub fn step_seeded(
        &self,
        protocol: &dyn Protocol,
        current: &Configuration,
        next: &mut Vec<Opinion>,
        master_seed: u64,
        round: u64,
    ) {
        self.engine
            .step_seeded(protocol, current, next, master_seed, round);
    }

    /// Seeded run — see [`Engine::run_seeded`].
    pub fn run_seeded(
        &self,
        protocol: &dyn Protocol,
        initial: Configuration,
        master_seed: u64,
    ) -> Result<RunResult> {
        self.engine.run_seeded(protocol, initial, master_seed)
    }

    /// Caller-RNG run — see [`Engine::run`].
    pub fn run(
        &self,
        protocol: &dyn Protocol,
        initial: Configuration,
        rng: &mut dyn RngCore,
    ) -> Result<RunResult> {
        self.engine.run(protocol, initial, rng)
    }
}

/// In-flight state of a (possibly sliced) run: what [`drive_budgeted`]
/// threads from slice to slice, and what a [`RunCheckpoint`] captures.
pub(crate) struct DriveState {
    pub(crate) config: Configuration,
    pub(crate) rounds: usize,
    pub(crate) trace: Option<Trace>,
    pub(crate) initial_blue_fraction: f64,
}

impl DriveState {
    /// Round-0 state of a fresh run (records the trace's round 0).
    pub(crate) fn fresh(initial: Configuration, record_trace: bool) -> Self {
        let initial_blue_fraction = initial.blue_fraction();
        let mut trace = if record_trace {
            Some(Trace::new())
        } else {
            None
        };
        if let Some(t) = trace.as_mut() {
            t.record(0, &initial);
        }
        DriveState {
            config: initial,
            rounds: 0,
            trace,
            initial_blue_fraction,
        }
    }
}

/// What one [`drive_budgeted`] call produced.
pub(crate) enum DriveOutcome {
    /// The stopping condition fired.
    Done(RunResult),
    /// The budget fired at a round boundary; the state is ready to continue.
    Paused(DriveState),
}

/// The shared run driver: applies `round_fn` until `stopping` or the budget
/// fires, recording the trace and assembling the [`RunResult`].
///
/// Every runner goes through this single loop, so stopping, trace and
/// bookkeeping semantics cannot drift between schedules or execution modes
/// (the bit-identical determinism contract depends on that).  The budget is
/// checked *after* the stopping condition at each round boundary — these are
/// the yield points — so a run whose stopping condition fires within the
/// slice completes rather than pausing, and pausing never observes a
/// half-applied round.
pub(crate) fn drive_budgeted(
    stopping: &StoppingCondition,
    budget: &RunBudget,
    mut state: DriveState,
    mut round_fn: impl FnMut(&mut Configuration, usize),
) -> DriveOutcome {
    let mut slice_rounds = 0usize;
    loop {
        if let Some(reason) = stopping.should_stop(&state.config, state.rounds) {
            return DriveOutcome::Done(RunResult {
                stop_reason: reason,
                winner: reason.winner(),
                rounds: state.rounds,
                initial_blue_fraction: state.initial_blue_fraction,
                final_blue_fraction: state.config.blue_fraction(),
                trace: state.trace,
                adversary: None,
            });
        }
        if budget.should_pause(slice_rounds) {
            return DriveOutcome::Paused(state);
        }
        round_fn(&mut state.config, state.rounds);
        state.rounds += 1;
        slice_rounds += 1;
        if let Some(t) = state.trace.as_mut() {
            t.record(state.rounds, &state.config);
        }
    }
}

/// [`drive_budgeted`] with an unlimited budget — the unbudgeted runners'
/// entry point.
pub(crate) fn drive(
    stopping: &StoppingCondition,
    record_trace: bool,
    initial: Configuration,
    round_fn: impl FnMut(&mut Configuration, usize),
) -> RunResult {
    match drive_budgeted(
        stopping,
        &RunBudget::unlimited(),
        DriveState::fresh(initial, record_trace),
        round_fn,
    ) {
        DriveOutcome::Done(result) => result,
        DriveOutcome::Paused(_) => unreachable!("an unlimited budget never pauses"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::InitialCondition;
    use crate::protocol::{BestOfThree, LocalMajority, Voter};
    use bo3_graph::{generators, Complete, ImplicitGnp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_empty_graph_and_isolated_vertices() {
        let empty = bo3_graph::GraphBuilder::new(0).build().unwrap();
        assert!(Simulator::new(&empty).is_err());
        let iso = bo3_graph::GraphBuilder::new(3)
            .add_edge(0, 1)
            .unwrap()
            .build()
            .unwrap();
        assert!(Simulator::new(&iso).is_err());
    }

    #[test]
    fn rejects_mismatched_initial_configuration() {
        let g = generators::complete(5);
        let sim = Simulator::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let bad = Configuration::all_red(3);
        assert!(matches!(
            sim.run(&BestOfThree::new(), bad, &mut rng),
            Err(DynamicsError::OpinionLengthMismatch {
                got: 3,
                expected: 5
            })
        ));
    }

    #[test]
    fn consensus_initial_state_stops_immediately() {
        let g = generators::complete(8);
        let sim = Simulator::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let res = sim
            .run(&BestOfThree::new(), Configuration::all_red(8), &mut rng)
            .unwrap();
        assert_eq!(res.rounds, 0);
        assert!(res.red_won());
        assert!(res.reached_consensus());
        assert_eq!(res.final_blue_fraction, 0.0);
    }

    #[test]
    fn best_of_three_reaches_red_consensus_on_dense_graph() {
        let g = generators::complete(400);
        let sim = Simulator::new(&g).unwrap().with_trace(true);
        let mut rng = StdRng::seed_from_u64(2);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(&BestOfThree::new(), init, &mut rng).unwrap();
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
        let sim = Simulator::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let init = InitialCondition::Bernoulli {
            blue_probability: 0.7,
        }
        .sample(&g, &mut rng)
        .unwrap();
        let res = sim.run(&BestOfThree::new(), init, &mut rng).unwrap();
        assert_eq!(res.winner, Some(Opinion::Blue));
    }

    #[test]
    fn fixed_round_budget_is_respected() {
        let g = generators::complete(100);
        let sim = Simulator::new(&g)
            .unwrap()
            .with_stopping(StoppingCondition::fixed_rounds(4))
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(4);
        let init = InitialCondition::ExactCount { blue: 50 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(&BestOfThree::new(), init, &mut rng).unwrap();
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

        let sim = Simulator::new(&g)
            .unwrap()
            .with_stopping(StoppingCondition::consensus_within(100_000));
        let bo3 = sim
            .run(&BestOfThree::new(), init.clone(), &mut rng)
            .unwrap();
        let voter = sim.run(&Voter::new(), init, &mut rng).unwrap();
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
        let sim = Simulator::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let init = InitialCondition::ExactCount { blue: 30 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(&LocalMajority::keep_own(), init, &mut rng).unwrap();
        assert!(res.red_won());
        assert_eq!(res.rounds, 1);
    }

    #[test]
    fn asynchronous_schedule_also_converges() {
        let g = generators::complete(200);
        let sim = Simulator::new(&g)
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder);
        let mut rng = StdRng::seed_from_u64(7);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(&BestOfThree::new(), init, &mut rng).unwrap();
        assert!(res.reached_consensus());
        assert!(res.red_won());
    }

    #[test]
    fn synchronous_step_reads_only_the_snapshot() {
        // On a 2-colourable structure, a synchronous local-majority update of
        // an alternating colouring swaps the colours (period-2 oscillation),
        // which is only possible if every vertex reads the *old* snapshot.
        let g = generators::complete_bipartite(5, 5).unwrap();
        let sim = Simulator::new(&g).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        // Left side blue, right side red.
        let opinions: Vec<Opinion> = (0..10)
            .map(|v| if v < 5 { Opinion::Blue } else { Opinion::Red })
            .collect();
        let cfg = Configuration::new(opinions);
        let mut next = Vec::new();
        sim.step_synchronous(&LocalMajority::keep_own(), &cfg, &mut next, &mut rng);
        // Every left vertex sees only red neighbours and vice versa.
        assert!(next[..5].iter().all(|&o| o == Opinion::Red));
        assert!(next[5..].iter().all(|&o| o == Opinion::Blue));
    }

    #[test]
    fn blue_extinction_stopping_is_honoured() {
        let g = generators::complete(500);
        let sim = Simulator::new(&g)
            .unwrap()
            .with_stopping(StoppingCondition::blue_extinction(1_000, 0.05));
        let mut rng = StdRng::seed_from_u64(9);
        let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
            .sample(&g, &mut rng)
            .unwrap();
        let res = sim.run(&BestOfThree::new(), init, &mut rng).unwrap();
        assert!(res.final_blue_fraction <= 0.05);
    }

    #[test]
    fn run_seeded_supports_the_asynchronous_schedule() {
        // Historically `run_seeded` rejected the asynchronous schedule; the
        // unified engine runs it, reproducibly, on materialised graphs...
        let g = generators::complete(300);
        let sim = Simulator::new(&g)
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(10);
        let init = InitialCondition::BernoulliWithBias { delta: 0.15 }
            .sample(&g, &mut rng)
            .unwrap();
        let a = sim
            .run_seeded(&BestOfThree::new(), init.clone(), 5)
            .unwrap();
        let b = sim.run_seeded(&BestOfThree::new(), init, 5).unwrap();
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
            .run_seeded_kind(ProtocolKind::BestOfThree, init.clone(), 21)
            .unwrap();
        let b = engine
            .run_seeded_kind(ProtocolKind::BestOfThree, init.clone(), 21)
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
            .run_seeded_kind(ProtocolKind::BestOfThree, init, 21)
            .unwrap();
        assert_eq!(a, threaded);
    }

    #[test]
    fn async_kernel_path_matches_the_dyn_path_draw_for_draw() {
        // The async round routes built-in protocols through the live-state
        // kernel update; forced onto the dyn path (DynOnly) with the same
        // caller RNG it must produce bit-identical rounds.
        use crate::kernel::DynOnly;
        use crate::protocol::{BestOfK, BestOfTwo, TieRule};
        let g = generators::complete_bipartite(150, 170).unwrap();
        let sim = Simulator::new(&g)
            .unwrap()
            .with_schedule(Schedule::AsynchronousRandomOrder)
            .with_stopping(StoppingCondition::fixed_rounds(6))
            .with_trace(true);
        let mut rng = StdRng::seed_from_u64(12);
        let init = InitialCondition::BernoulliWithBias { delta: 0.05 }
            .sample(&g, &mut rng)
            .unwrap();
        let pairs: Vec<(Box<dyn Protocol>, Box<dyn Protocol>)> = vec![
            (Box::new(Voter::new()), Box::new(DynOnly(Voter::new()))),
            (
                Box::new(BestOfTwo::new(TieRule::Random)),
                Box::new(DynOnly(BestOfTwo::new(TieRule::Random))),
            ),
            (
                Box::new(BestOfThree::new()),
                Box::new(DynOnly(BestOfThree::new())),
            ),
            (
                Box::new(BestOfK::new(4, TieRule::Random)),
                Box::new(DynOnly(BestOfK::new(4, TieRule::Random))),
            ),
            (
                Box::new(LocalMajority::new(TieRule::Random)),
                Box::new(DynOnly(LocalMajority::new(TieRule::Random))),
            ),
        ];
        for (kernel_side, dyn_side) in &pairs {
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            let a = sim
                .run(kernel_side.as_ref(), init.clone(), &mut rng_a)
                .unwrap();
            let b = sim
                .run(dyn_side.as_ref(), init.clone(), &mut rng_b)
                .unwrap();
            assert_eq!(a, b, "{} diverged", kernel_side.name());
        }
    }

    #[test]
    fn custom_protocols_on_implicit_topologies_are_a_typed_error() {
        use crate::kernel::DynOnly;
        let engine = Engine::new(Complete::new(50).unwrap()).unwrap();
        let init = Configuration::all_red(50);
        let mut rng = StdRng::seed_from_u64(13);
        assert!(matches!(
            engine.run(&DynOnly(BestOfThree::new()), init.clone(), &mut rng),
            Err(DynamicsError::InvalidParameter { .. })
        ));
        assert!(matches!(
            engine.run_seeded(&DynOnly(BestOfThree::new()), init, 0),
            Err(DynamicsError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn run_seeded_is_reproducible() {
        let g = generators::complete(300);
        let sim = Simulator::new(&g).unwrap().with_trace(true);
        let mut rng = StdRng::seed_from_u64(10);
        let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
            .sample(&g, &mut rng)
            .unwrap();
        let a = sim
            .run_seeded(&BestOfThree::new(), init.clone(), 77)
            .unwrap();
        let b = sim.run_seeded(&BestOfThree::new(), init, 77).unwrap();
        assert_eq!(a, b);
        assert!(a.red_won());
    }

    #[test]
    fn deterministic_given_the_same_seed() {
        let g = generators::complete(100);
        let sim = Simulator::new(&g).unwrap().with_trace(true);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
                .sample(&g, &mut rng)
                .unwrap();
            sim.run(&BestOfThree::new(), init, &mut rng).unwrap()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b);
        let c = run(43);
        assert!(a.rounds != c.rounds || a.trace != c.trace);
    }

    #[test]
    fn engine_on_graph_equals_simulator() {
        let g = generators::complete(200);
        let mut rng = StdRng::seed_from_u64(14);
        let init = InitialCondition::BernoulliWithBias { delta: 0.1 }
            .sample(&g, &mut rng)
            .unwrap();
        let engine = Engine::on_graph(&g).unwrap().with_trace(true);
        assert_eq!(engine.graph(), &g);
        let via_engine = engine
            .run_seeded(&BestOfThree::new(), init.clone(), 9)
            .unwrap();
        let via_simulator = Simulator::new(&g)
            .unwrap()
            .with_trace(true)
            .run_seeded(&BestOfThree::new(), init, 9)
            .unwrap();
        assert_eq!(via_engine, via_simulator);
    }
}
